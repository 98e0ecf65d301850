package pstruct

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/ptm"
)

// newTestByteMap returns a romlog engine holding an empty ByteMap at root 0.
func newTestByteMap(t *testing.T, regionSize int) (*core.Engine, *ByteMap) {
	t.Helper()
	e, err := core.New(regionSize, core.Config{Variant: core.RomLog})
	if err != nil {
		t.Fatal(err)
	}
	var m *ByteMap
	if err := e.Update(func(tx ptm.Tx) error {
		var err error
		m, err = NewByteMap(tx, 0, 0)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	return e, m
}

// checkNodes walks every chain and checks the node layout: each node's chunk
// starts a line, its lengths word passes bmLens, and a value that does not
// share the first line with the key starts on a line boundary.
func checkNodes(t *testing.T, tx ptm.Tx, m *ByteMap) {
	t.Helper()
	obj := tx.Root(m.root)
	nb := tx.Load64(obj + bmNBkts)
	bkts := field(tx, obj, bmBuckets)
	for i := uint64(0); i < nb; i++ {
		for n := ptm.Ptr(tx.Load64(bkts + ptm.Ptr(i*8))); !n.IsNil(); n = field(tx, n, bmNodeNext) {
			if (n-ptm.ChunkHeader)%ptm.LineSize != 0 {
				t.Fatalf("node %#x: chunk does not start a line", n)
			}
			kl, _, size, err := bmLens(tx, n)
			if err != nil {
				t.Fatal(err)
			}
			if off := bmValOff(kl, size); size != bmFirstLine && (n+ptm.Ptr(off))%ptm.LineSize != 0 {
				t.Fatalf("node %#x: %d-byte key, value at +%d is off a line", n, kl, off)
			}
		}
	}
}

// FuzzByteMap runs Put/Delete/Get sequences against a Go map model. Each
// three input bytes are one operation: the op, a key (24 keys of 0 to 40
// bytes) and a value length (0 to 2,032 bytes, most of them small, so
// overwrites are same-size, shrinking and growing, inline and line-aligned).
// After every operation the map must match the model, every node must keep
// its layout, and the allocator's heap checks must pass. Run with
// `go test -fuzz FuzzByteMap ./internal/pstruct`; the seeds below also run
// in ordinary `go test`.
func FuzzByteMap(f *testing.F) {
	f.Add([]byte{0, 1, 64, 0, 1, 64, 0, 1, 40, 0, 1, 80, 2, 1, 0, 1, 1, 0})
	f.Add([]byte{0, 0, 0, 0, 23, 255, 0, 5, 10, 0, 5, 200, 0, 23, 3, 1, 0, 0, 2, 23, 0})
	f.Add([]byte{0, 7, 20, 0, 8, 20, 0, 9, 20, 1, 8, 0, 0, 10, 100, 0, 8, 30, 0, 7, 140, 2, 9, 0})
	f.Add(bytes.Repeat([]byte{0, 3, 128, 0, 4, 90, 1, 3, 0, 0, 12, 255, 0, 4, 45}, 8))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 600 {
			data = data[:600]
		}
		e, m := newTestByteMap(t, 1<<20)
		model := map[string][]byte{}
		for i := 0; i+2 < len(data); i += 3 {
			id := int(data[i+1]) % 24
			key := bytes.Repeat([]byte{byte('a' + id)}, id*40/23)
			val := bytes.Repeat([]byte{byte(i)}, int(data[i+2])*int(data[i+2])/32)
			want, present := model[string(key)]
			if err := e.Update(func(tx ptm.Tx) error {
				switch data[i] % 3 {
				case 0:
					absent, err := m.Put(tx, key, val)
					if err != nil {
						return err
					}
					if absent == present {
						t.Fatalf("op %d: Put(%q) absent=%t, model has it: %t", i/3, key, absent, present)
					}
				case 1:
					deleted, err := m.Delete(tx, key)
					if err != nil {
						return err
					}
					if deleted != present {
						t.Fatalf("op %d: Delete(%q) = %t, model has it: %t", i/3, key, deleted, present)
					}
				case 2:
					got, err := m.Get(tx, key, nil)
					if !present && !errors.Is(err, ErrNotFound) || present && (err != nil || !bytes.Equal(got, want)) {
						t.Fatalf("op %d: Get(%q) = %d bytes, %v; model has %d bytes (%t)", i/3, key, len(got), err, len(want), present)
					}
				}
				return nil
			}); err != nil {
				t.Fatalf("op %d: %v", i/3, err)
			}
			switch data[i] % 3 {
			case 0:
				model[string(key)] = val
			case 1:
				delete(model, string(key))
			}
			if err := e.Read(func(tx ptm.Tx) error {
				if n := m.Len(tx); n != len(model) {
					t.Fatalf("op %d: Len = %d, model %d", i/3, n, len(model))
				}
				seen := 0
				if err := m.Range(tx, false, func(k, v []byte) bool {
					if want, ok := model[string(k)]; !ok || !bytes.Equal(v, want) {
						t.Fatalf("op %d: Range yields %q (%d bytes), model has %d bytes (%t)", i/3, k, len(v), len(want), ok)
					}
					seen++
					return true
				}); err != nil {
					return err
				}
				if seen != len(model) {
					t.Fatalf("op %d: Range visited %d pairs, model has %d", i/3, seen, len(model))
				}
				checkNodes(t, tx, m)
				return nil
			}); err != nil {
				t.Fatalf("op %d: %v", i/3, err)
			}
			if err := e.CheckHeap(); err != nil {
				t.Fatalf("op %d: %v", i/3, err)
			}
		}
	})
}

// TestByteMapRottedLengths rots a node's lengths word identically in both
// twins, as media damage that recovery cannot see would. Get, Range, Put and
// Delete must report the node as corrupt instead of sizing a read or a
// write by the word.
func TestByteMapRottedLengths(t *testing.T) {
	key := []byte("rotten-key")
	for _, rot := range []struct {
		name string
		word func(w uint64) uint64
	}{
		{"value length past the node", func(w uint64) uint64 { return w | 1<<39 }},
		{"key length pushing the value past the node", func(w uint64) uint64 { return w + 64 }},
		{"node size off a line", func(w uint64) uint64 { return w + 1<<40 }},
		{"all ones", func(uint64) uint64 { return ^uint64(0) }},
	} {
		t.Run(rot.name, func(t *testing.T) {
			e, m := newTestByteMap(t, 1<<20)
			var node ptm.Ptr
			if err := e.Update(func(tx ptm.Tx) error {
				if _, err := m.Put(tx, key, bytes.Repeat([]byte{7}, 100)); err != nil {
					return err
				}
				var err error
				node, _, _, err = m.findNode(tx, tx.Root(m.root), hashBytes(key), key)
				return err
			}); err != nil {
				t.Fatal(err)
			}
			dev := e.Device()
			for _, base := range e.DataOffsets() {
				off := base + int(node) + bmNodeLens
				dev.Store64(off, rot.word(dev.Load64(off)))
			}
			_ = e.Read(func(tx ptm.Tx) error {
				if _, err := m.Get(tx, key, nil); !errors.Is(err, ErrCorruptNode) || !errors.Is(err, ptm.ErrCorruptPayload) {
					t.Errorf("Get of a rotted node: %v, want ErrCorruptNode wrapping ptm.ErrCorruptPayload", err)
				}
				if err := m.Range(tx, false, func(k, v []byte) bool { return true }); !errors.Is(err, ErrCorruptNode) {
					t.Errorf("Range over a rotted node: %v, want ErrCorruptNode", err)
				}
				return nil
			})
			for name, op := range map[string]func(tx ptm.Tx) error{
				"Put":    func(tx ptm.Tx) error { _, err := m.Put(tx, key, []byte("v")); return err },
				"Delete": func(tx ptm.Tx) error { _, err := m.Delete(tx, key); return err },
			} {
				if err := e.Update(op); !errors.Is(err, ErrCorruptNode) {
					t.Errorf("%s over a rotted node: %v, want ErrCorruptNode", name, err)
				}
			}
		})
	}
}

// TestByteMapRefusesOversizedPairs pins the bounds of the lengths word: one
// byte past either is refused, and the map is left unchanged.
func TestByteMapRefusesOversizedPairs(t *testing.T) {
	e, m := newTestByteMap(t, 1<<25)
	for _, kv := range [][2]int{{bmMaxKey + 1, 0}, {8, bmMaxValue + 1}, {bmMaxKey, bmMaxValue}} {
		err := e.Update(func(tx ptm.Tx) error {
			_, err := m.Put(tx, make([]byte, kv[0]), make([]byte, kv[1]))
			return err
		})
		if fits := kv[0] <= bmMaxKey && kv[1] <= bmMaxValue; fits != (err == nil) || !fits && !errors.Is(err, ErrTooLarge) {
			t.Errorf("Put of a %d-byte key and a %d-byte value: %v", kv[0], kv[1], err)
		}
	}
	if err := e.Read(func(tx ptm.Tx) error {
		if n := m.Len(tx); n != 1 {
			t.Errorf("Len = %d after one accepted Put", n)
		}
		checkNodes(t, tx, m)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}
