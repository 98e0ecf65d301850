package core

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/ptm"
)

func TestSnapshotRoundTrip(t *testing.T) {
	forEachVariant(t, func(t *testing.T, v Variant) {
		e := newEngine(t, v)
		var p ptm.Ptr
		e.Update(func(tx ptm.Tx) error {
			var err error
			p, err = tx.Alloc(64)
			if err != nil {
				return err
			}
			tx.Store64(p, 777)
			tx.SetRoot(0, p)
			return nil
		})
		var buf bytes.Buffer
		if err := e.Snapshot(&buf); err != nil {
			t.Fatal(err)
		}
		re, err := RestoreSnapshot(&buf, Config{Variant: v})
		if err != nil {
			t.Fatal(err)
		}
		re.Read(func(tx ptm.Tx) error {
			if got := tx.Load64(tx.Root(0)); got != 777 {
				t.Errorf("restored value = %d", got)
			}
			return nil
		})
		// The restored engine must be fully operational.
		if err := re.Update(func(tx ptm.Tx) error {
			tx.Store64(p, 888)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if off := re.Verify(); off >= 0 {
			t.Errorf("restored engine copies diverge at %d", off)
		}
	})
}

func TestSnapshotExcludesLaterUpdates(t *testing.T) {
	e := newEngine(t, RomLog)
	var p ptm.Ptr
	e.Update(func(tx ptm.Tx) error {
		var err error
		p, err = tx.Alloc(8)
		tx.SetRoot(0, p)
		tx.Store64(p, 1)
		return err
	})
	var buf bytes.Buffer
	if err := e.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	// Mutate after the snapshot.
	e.Update(func(tx ptm.Tx) error {
		tx.Store64(p, 2)
		return nil
	})
	re, err := RestoreSnapshot(&buf, Config{Variant: RomLog})
	if err != nil {
		t.Fatal(err)
	}
	re.Read(func(tx ptm.Tx) error {
		if got := tx.Load64(p); got != 1 {
			t.Errorf("snapshot leaked later update: %d", got)
		}
		return nil
	})
}

func TestSnapshotToFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "snap.pm")
	e := newEngine(t, RomLog)
	e.Update(func(tx ptm.Tx) error {
		p, err := tx.Alloc(8)
		if err != nil {
			return err
		}
		tx.Store64(p, 42)
		tx.SetRoot(1, p)
		return nil
	})
	if err := e.SnapshotToFile(path); err != nil {
		t.Fatal(err)
	}
	re, err := OpenFileImage(path, Config{Variant: RomLog})
	if err != nil {
		t.Fatal(err)
	}
	re.Read(func(tx ptm.Tx) error {
		if got := tx.Load64(tx.Root(1)); got != 42 {
			t.Errorf("value = %d", got)
		}
		return nil
	})
}

func TestRestoreRejectsGarbage(t *testing.T) {
	if _, err := RestoreSnapshot(bytes.NewReader(nil), Config{}); err == nil {
		t.Error("empty image accepted")
	}
	if _, err := RestoreSnapshot(bytes.NewReader(make([]byte, 100)), Config{}); err == nil {
		t.Error("misaligned image accepted")
	}
}

// Snapshots taken while writers hammer the engine must each be internally
// consistent (the all-slots-equal invariant).
func TestSnapshotConsistentUnderConcurrentWriters(t *testing.T) {
	e := newEngine(t, RomLR)
	const slots = 16
	var arr ptm.Ptr
	e.Update(func(tx ptm.Tx) error {
		var err error
		arr, err = tx.Alloc(slots * 8)
		tx.SetRoot(0, arr)
		return err
	})
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := uint64(1); ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			e.Update(func(tx ptm.Tx) error {
				for s := 0; s < slots; s++ {
					tx.Store64(arr+ptm.Ptr(s*8), i)
				}
				return nil
			})
		}
	}()
	for round := 0; round < 5; round++ {
		var buf bytes.Buffer
		if err := e.Snapshot(&buf); err != nil {
			t.Fatal(err)
		}
		re, err := RestoreSnapshot(&buf, Config{Variant: RomLR})
		if err != nil {
			t.Fatal(err)
		}
		re.Read(func(tx ptm.Tx) error {
			a := tx.Root(0)
			first := tx.Load64(a)
			for s := 1; s < slots; s++ {
				if got := tx.Load64(a + ptm.Ptr(s*8)); got != first {
					t.Errorf("round %d: torn snapshot: slot %d = %d, slot 0 = %d", round, s, got, first)
				}
			}
			return nil
		})
	}
	close(stop)
	wg.Wait()
}

// OpenFileImage opens a snapshot image file for package-local tests.
func OpenFileImage(path string, cfg Config) (*Engine, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	return RestoreSnapshot(bytes.NewReader(data), cfg)
}
