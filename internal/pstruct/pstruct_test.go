package pstruct_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/pmem"
	"repro/internal/pstruct"
	"repro/internal/ptm"
	"repro/internal/redolog"
	"repro/internal/undolog"
)

// engines returns one instance of each PTM for cross-engine structure
// tests.
func engines(t testing.TB) map[string]ptm.PTM {
	t.Helper()
	out := map[string]ptm.PTM{}
	for _, v := range []core.Variant{core.Rom, core.RomLog, core.RomLR} {
		e, err := core.New(1<<21, core.Config{Variant: v})
		if err != nil {
			t.Fatal(err)
		}
		out[v.String()] = e
	}
	u, err := undolog.New(1<<21, undolog.Config{})
	if err != nil {
		t.Fatal(err)
	}
	out["pmdk"] = u
	r, err := redolog.New(1<<21, redolog.Config{})
	if err != nil {
		t.Fatal(err)
	}
	out["mne"] = r
	return out
}

func romlog(t testing.TB) ptm.PTM {
	t.Helper()
	e, err := core.New(1<<21, core.Config{Variant: core.RomLog})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestLinkedListSetBasics(t *testing.T) {
	for name, e := range engines(t) {
		t.Run(name, func(t *testing.T) {
			var set *pstruct.LinkedListSet
			if err := e.Update(func(tx ptm.Tx) error {
				var err error
				set, err = pstruct.NewLinkedListSet(tx, 0)
				return err
			}); err != nil {
				t.Fatal(err)
			}
			e.Update(func(tx ptm.Tx) error {
				for _, k := range []uint64{5, 1, 9, 3, 7} {
					if added, err := set.Add(tx, k); err != nil || !added {
						return fmt.Errorf("Add(%d) = %v, %v", k, added, err)
					}
				}
				if added, _ := set.Add(tx, 5); added {
					return fmt.Errorf("duplicate Add succeeded")
				}
				return nil
			})
			e.Read(func(tx ptm.Tx) error {
				if set.Len(tx) != 5 {
					t.Errorf("Len = %d", set.Len(tx))
				}
				keys := set.Keys(tx, nil)
				if !sort.SliceIsSorted(keys, func(i, j int) bool { return keys[i] < keys[j] }) {
					t.Errorf("keys not sorted: %v", keys)
				}
				if !set.Contains(tx, 7) || set.Contains(tx, 8) {
					t.Error("Contains wrong")
				}
				return nil
			})
			e.Update(func(tx ptm.Tx) error {
				if rem, _ := set.Remove(tx, 3); !rem {
					t.Error("Remove(3) failed")
				}
				if rem, _ := set.Remove(tx, 3); rem {
					t.Error("Remove(3) twice succeeded")
				}
				return nil
			})
			e.Read(func(tx ptm.Tx) error {
				if set.Len(tx) != 4 || set.Contains(tx, 3) {
					t.Error("state wrong after Remove")
				}
				return nil
			})
		})
	}
}

func TestLinkedListSetBoundaryKeys(t *testing.T) {
	e := romlog(t)
	var set *pstruct.LinkedListSet
	e.Update(func(tx ptm.Tx) error {
		var err error
		set, err = pstruct.NewLinkedListSet(tx, 0)
		if err != nil {
			return err
		}
		// Key 0 and near-max keys must work (max uint64 is the tail
		// sentinel's key, so ^uint64(0)-1 is the largest usable key).
		for _, k := range []uint64{0, 1, ^uint64(0) - 1} {
			if added, err := set.Add(tx, k); err != nil || !added {
				t.Errorf("Add(%d) = %v, %v", k, added, err)
			}
		}
		return nil
	})
	e.Read(func(tx ptm.Tx) error {
		for _, k := range []uint64{0, 1, ^uint64(0) - 1} {
			if !set.Contains(tx, k) {
				t.Errorf("Contains(%d) = false", k)
			}
		}
		return nil
	})
}

// Model-based test: the persistent structure must agree with a Go map
// under a random operation sequence, across all engines.
func TestHashMapModel(t *testing.T) {
	for name, e := range engines(t) {
		t.Run(name, func(t *testing.T) {
			var m *pstruct.HashMap
			if err := e.Update(func(tx ptm.Tx) error {
				var err error
				m, err = pstruct.NewHashMap(tx, 1)
				return err
			}); err != nil {
				t.Fatal(err)
			}
			model := map[uint64]uint64{}
			rng := rand.New(rand.NewSource(7))
			for i := 0; i < 600; i++ {
				k := uint64(rng.Intn(200))
				switch rng.Intn(3) {
				case 0, 1:
					v := rng.Uint64()
					err := e.Update(func(tx ptm.Tx) error {
						added, err := m.Put(tx, k, v)
						if err != nil {
							return err
						}
						_, existed := model[k]
						if added == existed {
							return fmt.Errorf("Put(%d): added=%v but existed=%v", k, added, existed)
						}
						return nil
					})
					if err != nil {
						t.Fatal(err)
					}
					model[k] = v
				case 2:
					err := e.Update(func(tx ptm.Tx) error {
						removed, err := m.Remove(tx, k)
						if err != nil {
							return err
						}
						_, existed := model[k]
						if removed != existed {
							return fmt.Errorf("Remove(%d): removed=%v existed=%v", k, removed, existed)
						}
						return nil
					})
					if err != nil {
						t.Fatal(err)
					}
					delete(model, k)
				}
			}
			e.Read(func(tx ptm.Tx) error {
				if m.Len(tx) != len(model) {
					t.Errorf("Len = %d, model %d", m.Len(tx), len(model))
				}
				for k, v := range model {
					got, err := m.Get(tx, k)
					if err != nil || got != v {
						t.Errorf("Get(%d) = %d, %v; want %d", k, got, err, v)
					}
				}
				count := 0
				m.Range(tx, func(k, v uint64) bool {
					if model[k] != v {
						t.Errorf("Range visited (%d,%d), model has %d", k, v, model[k])
					}
					count++
					return true
				})
				if count != len(model) {
					t.Errorf("Range visited %d, want %d", count, len(model))
				}
				return nil
			})
		})
	}
}

func TestHashMapResizes(t *testing.T) {
	e := romlog(t)
	var m *pstruct.HashMap
	e.Update(func(tx ptm.Tx) error {
		var err error
		m, err = pstruct.NewHashMap(tx, 0)
		return err
	})
	var before int
	e.Read(func(tx ptm.Tx) error { before = m.Buckets(tx); return nil })
	if err := e.Update(func(tx ptm.Tx) error {
		for k := uint64(0); k < 500; k++ {
			if _, err := m.Put(tx, k, k*10); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	e.Read(func(tx ptm.Tx) error {
		if m.Buckets(tx) <= before {
			t.Errorf("buckets did not grow: %d -> %d", before, m.Buckets(tx))
		}
		for k := uint64(0); k < 500; k++ {
			if v, err := m.Get(tx, k); err != nil || v != k*10 {
				t.Fatalf("Get(%d) after resize = %d, %v", k, v, err)
			}
		}
		return nil
	})
}

func TestHashMapFixedValueSizes(t *testing.T) {
	e := romlog(t)
	var m *pstruct.HashMapFixed
	e.Update(func(tx ptm.Tx) error {
		var err error
		m, err = pstruct.NewHashMapFixed(tx, 0, 64)
		return err
	})
	for _, size := range []int{8, 64, 256, 1024} {
		val := bytes.Repeat([]byte{byte(size)}, size)
		if err := e.Update(func(tx ptm.Tx) error {
			_, err := m.Put(tx, uint64(size), val)
			return err
		}); err != nil {
			t.Fatal(err)
		}
		e.Read(func(tx ptm.Tx) error {
			got, err := m.Get(tx, uint64(size), nil)
			if err != nil || !bytes.Equal(got, val) {
				t.Errorf("Get(%d): %v (len %d)", size, err, len(got))
			}
			return nil
		})
	}
	// Overwrite with smaller and larger values.
	e.Update(func(tx ptm.Tx) error {
		if _, err := m.Put(tx, 64, []byte("small")); err != nil {
			return err
		}
		_, err := m.Put(tx, 8, bytes.Repeat([]byte{9}, 100))
		return err
	})
	e.Read(func(tx ptm.Tx) error {
		got, _ := m.Get(tx, 64, nil)
		if string(got) != "small" {
			t.Errorf("shrunk value = %q", got)
		}
		got, _ = m.Get(tx, 8, nil)
		if len(got) != 100 || got[0] != 9 {
			t.Errorf("grown value wrong: len %d", len(got))
		}
		return nil
	})
	// Remove.
	e.Update(func(tx ptm.Tx) error {
		if rem, err := m.Remove(tx, 8); err != nil || !rem {
			t.Errorf("Remove = %v, %v", rem, err)
		}
		return nil
	})
	e.Read(func(tx ptm.Tx) error {
		if _, err := m.Get(tx, 8, nil); err != pstruct.ErrNotFound {
			t.Errorf("Get after remove = %v", err)
		}
		if m.Len(tx) != 3 {
			t.Errorf("Len = %d", m.Len(tx))
		}
		return nil
	})
}

func TestRBTreeModel(t *testing.T) {
	for name, e := range engines(t) {
		t.Run(name, func(t *testing.T) {
			var tree *pstruct.RBTree
			if err := e.Update(func(tx ptm.Tx) error {
				var err error
				tree, err = pstruct.NewRBTree(tx, 2)
				return err
			}); err != nil {
				t.Fatal(err)
			}
			model := map[uint64]uint64{}
			rng := rand.New(rand.NewSource(11))
			for i := 0; i < 500; i++ {
				k := uint64(rng.Intn(120))
				if rng.Intn(3) != 2 {
					v := rng.Uint64()
					if err := e.Update(func(tx ptm.Tx) error {
						added, err := tree.Put(tx, k, v)
						if err != nil {
							return err
						}
						_, existed := model[k]
						if added == existed {
							return fmt.Errorf("Put(%d) added=%v existed=%v", k, added, existed)
						}
						if !tree.CheckInvariants(tx) {
							return fmt.Errorf("red-black invariants violated after Put(%d)", k)
						}
						return nil
					}); err != nil {
						t.Fatal(err)
					}
					model[k] = v
				} else {
					if err := e.Update(func(tx ptm.Tx) error {
						removed, err := tree.Remove(tx, k)
						if err != nil {
							return err
						}
						_, existed := model[k]
						if removed != existed {
							return fmt.Errorf("Remove(%d) removed=%v existed=%v", k, removed, existed)
						}
						if !tree.CheckInvariants(tx) {
							return fmt.Errorf("red-black invariants violated after Remove(%d)", k)
						}
						return nil
					}); err != nil {
						t.Fatal(err)
					}
					delete(model, k)
				}
			}
			e.Read(func(tx ptm.Tx) error {
				if tree.Len(tx) != len(model) {
					t.Errorf("Len = %d, model %d", tree.Len(tx), len(model))
				}
				for k, v := range model {
					if got, err := tree.Get(tx, k); err != nil || got != v {
						t.Errorf("Get(%d) = %d, %v", k, got, err)
					}
				}
				// Range must be sorted and complete.
				var keys []uint64
				tree.Range(tx, func(k, v uint64) bool {
					keys = append(keys, k)
					return true
				})
				if len(keys) != len(model) {
					t.Errorf("Range visited %d keys, want %d", len(keys), len(model))
				}
				if !sort.SliceIsSorted(keys, func(i, j int) bool { return keys[i] < keys[j] }) {
					t.Error("Range not in sorted order")
				}
				return nil
			})
		})
	}
}

func TestByteMapModel(t *testing.T) {
	e := romlog(t)
	var m *pstruct.ByteMap
	e.Update(func(tx ptm.Tx) error {
		var err error
		m, err = pstruct.NewByteMap(tx, 0, 0)
		return err
	})
	model := map[string][]byte{}
	rng := rand.New(rand.NewSource(3))
	key := func(i int) []byte { return []byte(fmt.Sprintf("key-%04d", i)) }
	for i := 0; i < 800; i++ {
		k := key(rng.Intn(150))
		switch rng.Intn(4) {
		case 0, 1, 2:
			val := make([]byte, rng.Intn(120))
			rng.Read(val)
			if err := e.Update(func(tx ptm.Tx) error {
				added, err := m.Put(tx, k, val)
				if err != nil {
					return err
				}
				_, existed := model[string(k)]
				if added == existed {
					return fmt.Errorf("Put(%s) added=%v existed=%v", k, added, existed)
				}
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			model[string(k)] = val
		case 3:
			if err := e.Update(func(tx ptm.Tx) error {
				deleted, err := m.Delete(tx, k)
				if err != nil {
					return err
				}
				_, existed := model[string(k)]
				if deleted != existed {
					return fmt.Errorf("Delete(%s) deleted=%v existed=%v", k, deleted, existed)
				}
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			delete(model, string(k))
		}
	}
	e.Read(func(tx ptm.Tx) error {
		if m.Len(tx) != len(model) {
			t.Errorf("Len = %d, model %d", m.Len(tx), len(model))
		}
		for k, v := range model {
			got, err := m.Get(tx, []byte(k), nil)
			if err != nil || !bytes.Equal(got, v) {
				t.Errorf("Get(%s) = %v, %v", k, got, err)
			}
		}
		// Forward and reverse ranges visit everything, in opposite orders.
		var fwd, rev []string
		if err := m.Range(tx, false, func(k, v []byte) bool {
			if !bytes.Equal(model[string(k)], v) {
				t.Errorf("Range value mismatch for %s", k)
			}
			fwd = append(fwd, string(k))
			return true
		}); err != nil {
			t.Error(err)
		}
		if err := m.Range(tx, true, func(k, v []byte) bool {
			rev = append(rev, string(k))
			return true
		}); err != nil {
			t.Error(err)
		}
		if len(fwd) != len(model) || len(rev) != len(model) {
			t.Errorf("ranges visited %d/%d, want %d", len(fwd), len(rev), len(model))
		}
		return nil
	})
}

func TestByteMapEmptyKeyAndValue(t *testing.T) {
	e := romlog(t)
	var m *pstruct.ByteMap
	e.Update(func(tx ptm.Tx) error {
		var err error
		m, err = pstruct.NewByteMap(tx, 0, 0)
		if err != nil {
			return err
		}
		if _, err := m.Put(tx, []byte{}, []byte{}); err != nil {
			return err
		}
		if _, err := m.Put(tx, []byte("k"), nil); err != nil {
			return err
		}
		return nil
	})
	e.Read(func(tx ptm.Tx) error {
		got, err := m.Get(tx, []byte{}, nil)
		if err != nil || len(got) != 0 {
			t.Errorf("empty key: %v, %v", got, err)
		}
		got, err = m.Get(tx, []byte("k"), nil)
		if err != nil || len(got) != 0 {
			t.Errorf("nil value: %v, %v", got, err)
		}
		return nil
	})
}

func TestRangeEarlyStop(t *testing.T) {
	e := romlog(t)
	var m *pstruct.HashMap
	var tree *pstruct.RBTree
	e.Update(func(tx ptm.Tx) error {
		var err error
		m, err = pstruct.NewHashMap(tx, 0)
		if err != nil {
			return err
		}
		tree, err = pstruct.NewRBTree(tx, 1)
		if err != nil {
			return err
		}
		for k := uint64(0); k < 50; k++ {
			if _, err := m.Put(tx, k, k); err != nil {
				return err
			}
			if _, err := tree.Put(tx, k, k); err != nil {
				return err
			}
		}
		return nil
	})
	e.Read(func(tx ptm.Tx) error {
		n := 0
		m.Range(tx, func(k, v uint64) bool { n++; return n < 5 })
		if n != 5 {
			t.Errorf("hash map Range visited %d after early stop", n)
		}
		n = 0
		tree.Range(tx, func(k, v uint64) bool { n++; return n < 5 })
		if n != 5 {
			t.Errorf("tree Range visited %d after early stop", n)
		}
		return nil
	})
}

// Structures must survive a crash+recovery and still satisfy their
// invariants (spot check with the tree, the most delicate structure).
func TestStructuresSurviveCrash(t *testing.T) {
	e, err := core.New(1<<21, core.Config{Variant: core.RomLog})
	if err != nil {
		t.Fatal(err)
	}
	var tree *pstruct.RBTree
	e.Update(func(tx ptm.Tx) error {
		var err error
		tree, err = pstruct.NewRBTree(tx, 0)
		return err
	})
	for k := uint64(0); k < 200; k++ {
		e.Update(func(tx ptm.Tx) error {
			_, err := tree.Put(tx, k, k^0xFF)
			return err
		})
	}
	// Crash mid-transaction.
	dev := e.Device()
	var img []byte
	dev.SetHooks(&pmem.Hooks{Pwb: func(n uint64) {
		if img == nil && n > 5 {
			img = dev.CrashImage(crashKeepQueued())
		}
	}})
	e.Update(func(tx ptm.Tx) error {
		for k := uint64(200); k < 230; k++ {
			if _, err := tree.Put(tx, k, 1); err != nil {
				return err
			}
		}
		return nil
	})
	dev.SetHooks(nil)
	if img == nil {
		t.Fatal("no crash image")
	}
	re, err := core.Open(deviceFromImage(img), core.Config{Variant: core.RomLog})
	if err != nil {
		t.Fatal(err)
	}
	tree2 := pstruct.AttachRBTree(0)
	re.Read(func(tx ptm.Tx) error {
		if !tree2.CheckInvariants(tx) {
			t.Error("tree invariants violated after crash recovery")
		}
		if got := tree2.Len(tx); got != 200 {
			t.Errorf("Len after rollback = %d, want 200", got)
		}
		for k := uint64(0); k < 200; k++ {
			if v, err := tree2.Get(tx, k); err != nil || v != k^0xFF {
				t.Fatalf("Get(%d) = %d, %v", k, v, err)
			}
		}
		return nil
	})
}

// TestByteMapHotPathAllocs pins that a hit Get (into a large-enough dst) and
// a same-size overwrite Put allocate nothing on the Go heap: every chain
// step compares keys, so one allocation there is one per lookup.
func TestByteMapHotPathAllocs(t *testing.T) {
	e := romlog(t)
	keys := [][]byte{[]byte("k"), []byte("key-0042"), []byte("key-0042-with-a-longer-tail")}
	val := []byte("value-of-sixteen")
	var m *pstruct.ByteMap
	if err := e.Update(func(tx ptm.Tx) error {
		var err error
		if m, err = pstruct.NewByteMap(tx, 0, 0); err != nil {
			return err
		}
		for _, k := range keys {
			if _, err := m.Put(tx, k, val); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	dst := make([]byte, 0, 64)
	for _, k := range keys {
		var gets, puts float64
		if err := e.Update(func(tx ptm.Tx) error {
			gets = testing.AllocsPerRun(50, func() {
				if _, err := m.Get(tx, k, dst); err != nil {
					t.Error(err)
				}
			})
			puts = testing.AllocsPerRun(50, func() {
				if _, err := m.Put(tx, k, val); err != nil {
					t.Error(err)
				}
			})
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if gets != 0 || puts != 0 {
			t.Errorf("key %q: %v allocs per Get, %v per same-size Put; want 0", k, gets, puts)
		}
	}
}
