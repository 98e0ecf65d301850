package core

import (
	"testing"

	"repro/internal/ptm"
)

func TestVerifyTwinCopies(t *testing.T) {
	forEachVariant(t, func(t *testing.T, v Variant) {
		e := newEngine(t, v)
		var p ptm.Ptr
		for i := 0; i < 20; i++ {
			e.Update(func(tx ptm.Tx) error {
				var err error
				if p.IsNil() {
					p, err = tx.Alloc(256)
					if err != nil {
						return err
					}
					tx.SetRoot(0, p)
				}
				tx.Store64(p+ptm.Ptr((i%32)*8), uint64(i))
				return nil
			})
			if off := e.Verify(); off >= 0 {
				t.Fatalf("iteration %d: copies diverge at offset %d", i, off)
			}
		}
		// After a rollback the copies must also agree.
		e.Update(func(tx ptm.Tx) error {
			tx.Store64(p, 0xDEAD)
			return errFake
		})
		if off := e.Verify(); off >= 0 {
			t.Fatalf("after rollback: copies diverge at offset %d", off)
		}
	})
}

var errFake = &fakeError{}

type fakeError struct{}

func (*fakeError) Error() string { return "fake" }
