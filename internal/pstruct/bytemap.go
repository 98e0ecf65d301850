package pstruct

import (
	"encoding/binary"

	"repro/internal/ptm"
)

// ByteMap is a persistent resizable hash map from byte-string keys to
// byte-string values. It is the storage engine of RomulusDB (§6.4 of the
// paper wraps a hash map behind the LevelDB interface). Keys are stored
// inline in the node together with their hash (so rehashing never touches
// key bytes); values live in separate allocations because they are
// replaced frequently.
//
// Map object layout (24 bytes): +0 buckets ptr, +8 bucket count, +16 size.
// Node layout: +0 next, +8 hash, +16 key length, +24 value ptr,
// +32 value length, +40 key bytes (inline).
type ByteMap struct {
	root int
}

const (
	bmBuckets = 0
	bmNBkts   = 8
	bmSize    = 16

	bmNodeNext   = 0
	bmNodeHash   = 8
	bmNodeKeyLen = 16
	bmNodeValPtr = 24
	bmNodeValLen = 32
	bmNodeKey    = 40

	bmInitialBuckets = 64
	bmMaxLoad        = 2
)

// NewByteMap creates a map with at least minBuckets buckets (rounded up to
// a power of two; 0 means the default) under the root index if absent.
func NewByteMap(tx ptm.Tx, root, minBuckets int) (*ByteMap, error) {
	if !tx.Root(root).IsNil() {
		return &ByteMap{root: root}, nil
	}
	nb := bmInitialBuckets
	for nb < minBuckets {
		nb *= 2
	}
	obj, err := tx.Alloc(24)
	if err != nil {
		return nil, err
	}
	bkts, err := tx.Alloc(nb * 8)
	if err != nil {
		return nil, err
	}
	setField(tx, obj, bmBuckets, bkts)
	tx.Store64(obj+bmNBkts, uint64(nb))
	tx.SetRoot(root, obj)
	return &ByteMap{root: root}, nil
}

// AttachByteMap returns a handle to an existing map.
func AttachByteMap(root int) *ByteMap { return &ByteMap{root: root} }

// bmKeyEquals compares the node's inline key with key a word at a time.
// Loading into a local buffer instead would move the buffer to the heap
// (it escapes through the Tx interface), one allocation per chain step.
func bmKeyEquals(tx ptm.Tx, n ptm.Ptr, h uint64, key []byte) bool {
	if tx.Load64(n+bmNodeHash) != h {
		return false
	}
	if int(tx.Load64(n+bmNodeKeyLen)) != len(key) {
		return false
	}
	p := n + bmNodeKey
	for ; len(key) >= 8; p, key = p+8, key[8:] {
		if tx.Load64(p) != binary.LittleEndian.Uint64(key) {
			return false
		}
	}
	if len(key) >= 4 {
		if tx.Load32(p) != binary.LittleEndian.Uint32(key) {
			return false
		}
		p, key = p+4, key[4:]
	}
	for i := range key {
		if tx.Load8(p+ptm.Ptr(i)) != key[i] {
			return false
		}
	}
	return true
}

func (m *ByteMap) findNode(tx ptm.Tx, obj ptm.Ptr, h uint64, key []byte) (node, prev, slot ptm.Ptr) {
	nb := tx.Load64(obj + bmNBkts)
	slot = field(tx, obj, bmBuckets) + ptm.Ptr(h%nb*8)
	for n := ptm.Ptr(tx.Load64(slot)); !n.IsNil(); n = field(tx, n, bmNodeNext) {
		if bmKeyEquals(tx, n, h, key) {
			return n, prev, slot
		}
		prev = n
	}
	return 0, prev, slot
}

// Get copies the value for key into dst (reallocating if needed) and
// returns it, or ErrNotFound.
func (m *ByteMap) Get(tx ptm.Tx, key, dst []byte) ([]byte, error) {
	obj := tx.Root(m.root)
	n, _, _ := m.findNode(tx, obj, hashBytes(key), key)
	if n.IsNil() {
		return nil, ErrNotFound
	}
	vl := int(tx.Load64(n + bmNodeValLen))
	if cap(dst) < vl {
		dst = make([]byte, vl)
	}
	dst = dst[:vl]
	if vl > 0 {
		tx.LoadBytes(field(tx, n, bmNodeValPtr), dst)
	}
	return dst, nil
}

// Has reports whether key is present.
func (m *ByteMap) Has(tx ptm.Tx, key []byte) bool {
	obj := tx.Root(m.root)
	n, _, _ := m.findNode(tx, obj, hashBytes(key), key)
	return !n.IsNil()
}

// Put inserts or replaces key's value, reporting whether the key was
// absent.
func (m *ByteMap) Put(tx ptm.Tx, key, val []byte) (bool, error) {
	obj := tx.Root(m.root)
	h := hashBytes(key)
	n, _, slot := m.findNode(tx, obj, h, key)
	if !n.IsNil() {
		return false, m.replaceValue(tx, n, val)
	}
	node, err := tx.Alloc(bmNodeKey + len(key))
	if err != nil {
		return false, err
	}
	tx.Store64(node+bmNodeHash, h)
	tx.Store64(node+bmNodeKeyLen, uint64(len(key)))
	if len(key) > 0 {
		tx.StoreBytes(node+bmNodeKey, key)
	}
	if err := m.replaceValue(tx, node, val); err != nil {
		return false, err
	}
	tx.Store64(node+bmNodeNext, tx.Load64(slot))
	tx.Store64(slot, uint64(node))
	size := tx.Load64(obj+bmSize) + 1
	tx.Store64(obj+bmSize, size)
	if size > bmMaxLoad*tx.Load64(obj+bmNBkts) {
		if err := m.resize(tx, obj); err != nil {
			return false, err
		}
	}
	return true, nil
}

// replaceValue swaps in a new value blob, reusing the old allocation when
// it is large enough.
func (m *ByteMap) replaceValue(tx ptm.Tx, n ptm.Ptr, val []byte) error {
	old := field(tx, n, bmNodeValPtr)
	oldLen := int(tx.Load64(n + bmNodeValLen))
	if !old.IsNil() && oldLen >= len(val) {
		// A same-size overwrite leaves the node untouched: storing the
		// unchanged length would dirty the node's line in both twins.
		if oldLen != len(val) {
			tx.Store64(n+bmNodeValLen, uint64(len(val)))
		}
		if len(val) > 0 {
			tx.StoreBytes(old, val)
		}
		return nil
	}
	var blob ptm.Ptr
	if len(val) > 0 {
		var err error
		blob, err = tx.Alloc(len(val))
		if err != nil {
			return err
		}
		tx.StoreBytes(blob, val)
	}
	if !old.IsNil() {
		if err := tx.Free(old); err != nil {
			return err
		}
	}
	setField(tx, n, bmNodeValPtr, blob)
	tx.Store64(n+bmNodeValLen, uint64(len(val)))
	return nil
}

// Delete removes key, reporting whether it was present.
func (m *ByteMap) Delete(tx ptm.Tx, key []byte) (bool, error) {
	obj := tx.Root(m.root)
	n, prev, slot := m.findNode(tx, obj, hashBytes(key), key)
	if n.IsNil() {
		return false, nil
	}
	next := tx.Load64(n + bmNodeNext)
	if prev.IsNil() {
		tx.Store64(slot, next)
	} else {
		tx.Store64(prev+bmNodeNext, next)
	}
	tx.Store64(obj+bmSize, tx.Load64(obj+bmSize)-1)
	if v := field(tx, n, bmNodeValPtr); !v.IsNil() {
		if err := tx.Free(v); err != nil {
			return true, err
		}
	}
	return true, tx.Free(n)
}

// resize doubles the bucket array, rehashing via stored hashes (no key
// bytes are read).
func (m *ByteMap) resize(tx ptm.Tx, obj ptm.Ptr) error {
	oldN := tx.Load64(obj + bmNBkts)
	oldB := field(tx, obj, bmBuckets)
	newN := oldN * 2
	newB, err := tx.Alloc(int(newN * 8))
	if err != nil {
		if err == ptm.ErrOutOfMemory {
			return nil // keep the old table; chains grow
		}
		return err
	}
	for i := uint64(0); i < oldN; i++ {
		n := ptm.Ptr(tx.Load64(oldB + ptm.Ptr(i*8)))
		for !n.IsNil() {
			next := field(tx, n, bmNodeNext)
			slot := newB + ptm.Ptr(tx.Load64(n+bmNodeHash)%newN*8)
			tx.Store64(n+bmNodeNext, tx.Load64(slot))
			tx.Store64(slot, uint64(n))
			n = next
		}
	}
	setField(tx, obj, bmBuckets, newB)
	tx.Store64(obj+bmNBkts, newN)
	return tx.Free(oldB)
}

// Len returns the number of entries.
func (m *ByteMap) Len(tx ptm.Tx) int {
	return int(tx.Load64(tx.Root(m.root) + bmSize))
}

// Range calls fn with copies of every (key, value) pair in bucket order
// (forward when reverse is false, backward otherwise) until fn returns
// false. Hash order is arbitrary but stable between calls, which is all
// the RomulusDB iterators need (§6.4: traversal order has no extra cost on
// a hash map).
func (m *ByteMap) Range(tx ptm.Tx, reverse bool, fn func(key, val []byte) bool) {
	obj := tx.Root(m.root)
	nb := int(tx.Load64(obj + bmNBkts))
	bkts := field(tx, obj, bmBuckets)
	visit := func(i int) bool {
		for n := ptm.Ptr(tx.Load64(bkts + ptm.Ptr(i*8))); !n.IsNil(); n = field(tx, n, bmNodeNext) {
			kl := int(tx.Load64(n + bmNodeKeyLen))
			vl := int(tx.Load64(n + bmNodeValLen))
			key := make([]byte, kl)
			tx.LoadBytes(n+bmNodeKey, key)
			val := make([]byte, vl)
			if vl > 0 {
				tx.LoadBytes(field(tx, n, bmNodeValPtr), val)
			}
			if !fn(key, val) {
				return false
			}
		}
		return true
	}
	if reverse {
		for i := nb - 1; i >= 0; i-- {
			if !visit(i) {
				return
			}
		}
	} else {
		for i := 0; i < nb; i++ {
			if !visit(i) {
				return
			}
		}
	}
}
