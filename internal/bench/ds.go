package bench

import (
	"fmt"
	"math/rand"

	"repro/internal/pstruct"
	"repro/internal/ptm"
)

// DataStructure adapts one of the paper's evaluation structures to the
// harness. Following §6.2: an update operation is two consecutive
// transactions (a removal then an insertion of the same random key, so the
// population is invariant) and a read operation is two read-only
// transactions, each looking up an existing random key.
type DataStructure interface {
	// Update performs one update operation (two transactions) on key.
	Update(e ptm.PTM, key uint64) error
	// Read performs one read operation (two transactions) on key.
	Read(e ptm.PTM, key uint64) error
}

// DSKinds lists the Figure 4 structures in presentation order.
var DSKinds = []string{"list", "hash", "tree"}

// NewDS creates and prefills a data structure of the given kind with keys
// 0..keys-1. Prefilling batches many insertions per transaction to keep
// setup time reasonable on the basic Rom engine.
func NewDS(e Engine, kind string, keys int, valSize int) (DataStructure, error) {
	switch kind {
	case "list":
		return newListDS(e, keys)
	case "hash":
		return newHashDS(e, keys)
	case "tree":
		return newTreeDS(e, keys)
	case "fixed":
		return newFixedDS(e, keys, 2048, valSize)
	}
	return nil, fmt.Errorf("bench: unknown data structure %q", kind)
}

// prefill inserts keys 0..n-1 in random order, batchSize keys per
// transaction.
func prefill(e Engine, n int, insert func(tx ptm.Tx, key uint64) error) error {
	perm := rand.New(rand.NewSource(42)).Perm(n)
	const batchSize = 512
	for lo := 0; lo < n; lo += batchSize {
		hi := lo + batchSize
		if hi > n {
			hi = n
		}
		if err := e.Update(func(tx ptm.Tx) error {
			for _, k := range perm[lo:hi] {
				if err := insert(tx, uint64(k)); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			return fmt.Errorf("bench: prefill: %w", err)
		}
	}
	return nil
}

type listDS struct {
	set *pstruct.LinkedListSet
}

func newListDS(e Engine, keys int) (*listDS, error) {
	d := &listDS{}
	if err := e.Update(func(tx ptm.Tx) error {
		set, err := pstruct.NewLinkedListSet(tx, 0)
		d.set = set
		return err
	}); err != nil {
		return nil, err
	}
	err := prefill(e, keys, func(tx ptm.Tx, k uint64) error {
		_, err := d.set.Add(tx, k)
		return err
	})
	return d, err
}

func (d *listDS) Update(e ptm.PTM, key uint64) error {
	if err := e.Update(func(tx ptm.Tx) error {
		_, err := d.set.Remove(tx, key)
		return err
	}); err != nil {
		return err
	}
	return e.Update(func(tx ptm.Tx) error {
		_, err := d.set.Add(tx, key)
		return err
	})
}

func (d *listDS) Read(e ptm.PTM, key uint64) error {
	for i := 0; i < 2; i++ {
		if err := e.Read(func(tx ptm.Tx) error {
			d.set.Contains(tx, key)
			return nil
		}); err != nil {
			return err
		}
	}
	return nil
}

type hashDS struct {
	m *pstruct.HashMap
}

func newHashDS(e Engine, keys int) (*hashDS, error) {
	d := &hashDS{}
	if err := e.Update(func(tx ptm.Tx) error {
		m, err := pstruct.NewHashMap(tx, 0)
		d.m = m
		return err
	}); err != nil {
		return nil, err
	}
	err := prefill(e, keys, func(tx ptm.Tx, k uint64) error {
		_, err := d.m.Put(tx, k, k)
		return err
	})
	return d, err
}

func (d *hashDS) Update(e ptm.PTM, key uint64) error {
	if err := e.Update(func(tx ptm.Tx) error {
		_, err := d.m.Remove(tx, key)
		return err
	}); err != nil {
		return err
	}
	return e.Update(func(tx ptm.Tx) error {
		_, err := d.m.Put(tx, key, key)
		return err
	})
}

func (d *hashDS) Read(e ptm.PTM, key uint64) error {
	for i := 0; i < 2; i++ {
		if err := e.Read(func(tx ptm.Tx) error {
			d.m.Contains(tx, key)
			return nil
		}); err != nil {
			return err
		}
	}
	return nil
}

type treeDS struct {
	t *pstruct.RBTree
}

func newTreeDS(e Engine, keys int) (*treeDS, error) {
	d := &treeDS{}
	if err := e.Update(func(tx ptm.Tx) error {
		t, err := pstruct.NewRBTree(tx, 0)
		d.t = t
		return err
	}); err != nil {
		return nil, err
	}
	err := prefill(e, keys, func(tx ptm.Tx, k uint64) error {
		_, err := d.t.Put(tx, k, k)
		return err
	})
	return d, err
}

func (d *treeDS) Update(e ptm.PTM, key uint64) error {
	if err := e.Update(func(tx ptm.Tx) error {
		_, err := d.t.Remove(tx, key)
		return err
	}); err != nil {
		return err
	}
	return e.Update(func(tx ptm.Tx) error {
		_, err := d.t.Put(tx, key, key)
		return err
	})
}

func (d *treeDS) Read(e ptm.PTM, key uint64) error {
	for i := 0; i < 2; i++ {
		if err := e.Read(func(tx ptm.Tx) error {
			d.t.Contains(tx, key)
			return nil
		}); err != nil {
			return err
		}
	}
	return nil
}

// fixedDS is the Figure 5 structure: a statically-dimensioned hash map
// with byte values of a fixed size.
type fixedDS struct {
	m   *pstruct.HashMapFixed
	val []byte
}

func newFixedDS(e Engine, keys, buckets, valSize int) (*fixedDS, error) {
	d := &fixedDS{val: make([]byte, valSize)}
	for i := range d.val {
		d.val[i] = byte(i)
	}
	if err := e.Update(func(tx ptm.Tx) error {
		m, err := pstruct.NewHashMapFixed(tx, 0, buckets)
		d.m = m
		return err
	}); err != nil {
		return nil, err
	}
	err := prefill(e, keys, func(tx ptm.Tx, k uint64) error {
		_, err := d.m.Put(tx, k, d.val)
		return err
	})
	return d, err
}

func (d *fixedDS) Update(e ptm.PTM, key uint64) error {
	if err := e.Update(func(tx ptm.Tx) error {
		_, err := d.m.Remove(tx, key)
		return err
	}); err != nil {
		return err
	}
	return e.Update(func(tx ptm.Tx) error {
		_, err := d.m.Put(tx, key, d.val)
		return err
	})
}

func (d *fixedDS) Read(e ptm.PTM, key uint64) error {
	var buf []byte
	for i := 0; i < 2; i++ {
		if err := e.Read(func(tx ptm.Tx) error {
			b, err := d.m.Get(tx, key, buf)
			if err == nil {
				buf = b
			}
			return nil
		}); err != nil {
			return err
		}
	}
	return nil
}

// RegionFor estimates a generous per-copy region size for a structure of
// the given population and value size.
func RegionFor(keys, valSize int) int {
	perKey := 160 + 2*valSize // node chunk + bucket slots + slack
	size := keys*perKey + (8 << 20)
	return size
}
