package pstruct

import (
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/ptm"
)

// ByteMap is a persistent resizable hash map from byte-string keys to
// byte-string values. It is the storage engine of RomulusDB (§6.4 of the
// paper wraps a hash map behind the LevelDB interface). Each key has one
// node that holds the key, its hash (so rehashing never touches key bytes)
// and the value itself: one allocation per key and no value pointer.
//
// Map object layout (24 bytes): +0 buckets ptr, +8 bucket count, +16 size.
//
// A node is a line-aligned chunk (ptm.Tx.AllocAligned) of whole cache
// lines. Its first line holds the allocator's 16-byte chunk header, then
// +0 next, +8 hash, +16 lengths (key length in bits 0-15, value length in
// bits 16-39, node size in bits 40-63) and +24 the key, so a chain walk
// reads one line per node for keys of up to 24 bytes. The value follows
// the key when both fit in the first line; otherwise it starts on the first
// line boundary after the key, so a value of n bytes occupies ceil(n/64)
// lines at commit and in the back copy. The node's slack after the value is
// the value's capacity: an overwrite that fits stays in place.
type ByteMap struct {
	root int
}

const (
	bmBuckets = 0
	bmNBkts   = 8
	bmSize    = 16

	bmNodeNext = 0
	bmNodeHash = 8
	bmNodeLens = 16
	bmNodeKey  = 24

	// bmFirstLine is the node bytes in its chunk's first line.
	bmFirstLine = ptm.LineSize - ptm.ChunkHeader

	bmInitialBuckets = 64
	bmMaxLoad        = 2

	// bmMaxKey and bmMaxValue bound what a node's lengths word can record:
	// the node size of a maximal key and value still fits its 24 bits.
	bmMaxKey   = 1<<16 - 1
	bmMaxValue = 1<<24 - 1<<17
)

// ErrTooLarge is returned by ByteMap.Put for a key longer than 65,535 bytes
// or a value longer than 16 MiB - 128 KiB.
var ErrTooLarge = errors.New("pstruct: key or value too large for a map node")

// ErrCorruptNode is returned (wrapped) by ByteMap operations that reach a
// node whose lengths word does not describe a node Put could have written:
// the node does not end on a line, or the key and value overrun it. The word
// is never used to size a read; the entry is lost and reported. It wraps
// ptm.ErrCorruptPayload.
var ErrCorruptNode = fmt.Errorf("pstruct: map node lengths failed validation: %w", ptm.ErrCorruptPayload)

func bmPack(kl, vl, size int) uint64 {
	return uint64(kl) | uint64(vl)<<16 | uint64(size)<<40
}

// bmValOff returns where the value starts in a node of size bytes with a
// kl-byte key: right after the key in a one-line node, else on the first
// line boundary after the key.
func bmValOff(kl, size int) int {
	if size == bmFirstLine {
		return bmNodeKey + kl
	}
	return ptm.Align(ptm.ChunkHeader+bmNodeKey+kl, ptm.LineSize) - ptm.ChunkHeader
}

// bmNodeSize returns the size of a new node for a kl-byte key and a vl-byte
// value: one line when both fit in it, else whole lines up to the value's
// end. The slack is the value's capacity.
func bmNodeSize(kl, vl int) int {
	if bmNodeKey+kl+vl <= bmFirstLine {
		return bmFirstLine
	}
	off := bmValOff(kl, 0) // in a multi-line node the key alone sets it
	return ptm.Align(ptm.ChunkHeader+off+vl, ptm.LineSize) - ptm.ChunkHeader
}

// bmLens loads node n's lengths word and checks it against the node size it
// records: the node must end on a line, and the value must fit between its
// offset (which the key length sets) and the node's end.
func bmLens(tx ptm.Tx, n ptm.Ptr) (kl, vl, size int, err error) {
	w := tx.Load64(n + bmNodeLens)
	kl, vl, size = int(w&0xFFFF), int(w>>16&0xFFFFFF), int(w>>40)
	if (ptm.ChunkHeader+size)%ptm.LineSize != 0 || bmValOff(kl, size)+vl > size {
		return 0, 0, 0, fmt.Errorf("%w: node %#x, lengths word %#x", ErrCorruptNode, n, w)
	}
	return kl, vl, size, nil
}

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

// bmKeyEquals compares the key bytes at p with key a word at a time.
// Loading into a local buffer instead would move the buffer to the heap
// (it escapes through the Tx interface), one allocation per chain step.
func bmKeyEquals(tx ptm.Tx, p ptm.Ptr, key []byte) bool {
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

// findNode returns key's node, its predecessor in the chain (nil for the
// first) and the bucket slot. A node whose hash matches has its lengths
// checked before its key is compared.
func (m *ByteMap) findNode(tx ptm.Tx, obj ptm.Ptr, h uint64, key []byte) (node, prev, slot ptm.Ptr, err error) {
	nb := tx.Load64(obj + bmNBkts)
	slot = field(tx, obj, bmBuckets) + ptm.Ptr(h%nb*8)
	for n := ptm.Ptr(tx.Load64(slot)); !n.IsNil(); n = field(tx, n, bmNodeNext) {
		if tx.Load64(n+bmNodeHash) == h {
			kl, _, _, err := bmLens(tx, n)
			if err != nil {
				return 0, 0, slot, err
			}
			if kl == len(key) && bmKeyEquals(tx, n+bmNodeKey, key) {
				return n, prev, slot, nil
			}
		}
		prev = n
	}
	return 0, prev, slot, nil
}

// Get copies the value for key into dst (reallocating if needed) and
// returns it, or ErrNotFound.
func (m *ByteMap) Get(tx ptm.Tx, key, dst []byte) ([]byte, error) {
	obj := tx.Root(m.root)
	n, _, _, err := m.findNode(tx, obj, hashBytes(key), key)
	if err != nil {
		return nil, err
	}
	if n.IsNil() {
		return nil, ErrNotFound
	}
	kl, vl, size, _ := bmLens(tx, n)
	if cap(dst) < vl {
		dst = make([]byte, vl)
	}
	dst = dst[:vl]
	if vl > 0 {
		tx.LoadBytes(n+ptm.Ptr(bmValOff(kl, size)), dst)
	}
	return dst, nil
}

// Has reports whether key is present. A node that fails its lengths check
// is not.
func (m *ByteMap) Has(tx ptm.Tx, key []byte) bool {
	obj := tx.Root(m.root)
	n, _, _, _ := m.findNode(tx, obj, hashBytes(key), key)
	return !n.IsNil()
}

// Put inserts or replaces key's value, reporting whether the key was
// absent.
func (m *ByteMap) Put(tx ptm.Tx, key, val []byte) (bool, error) {
	if len(key) > bmMaxKey || len(val) > bmMaxValue {
		return false, ErrTooLarge
	}
	obj := tx.Root(m.root)
	h := hashBytes(key)
	n, prev, slot, err := m.findNode(tx, obj, h, key)
	if err != nil {
		return false, err
	}
	if !n.IsNil() {
		link := slot
		if !prev.IsNil() {
			link = prev + bmNodeNext
		}
		return false, replaceValue(tx, n, link, h, key, val)
	}
	node, err := newNode(tx, h, key, val)
	if err != nil {
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

// newNode allocates a node holding key and val, not yet linked.
func newNode(tx ptm.Tx, h uint64, key, val []byte) (ptm.Ptr, error) {
	size := bmNodeSize(len(key), len(val))
	n, err := tx.AllocAligned(size)
	if err != nil {
		return 0, err
	}
	tx.Store64(n+bmNodeHash, h)
	tx.Store64(n+bmNodeLens, bmPack(len(key), len(val), size))
	if len(key) > 0 {
		tx.StoreBytes(n+bmNodeKey, key)
	}
	if len(val) > 0 {
		tx.StoreBytes(n+ptm.Ptr(bmValOff(len(key), size)), val)
	}
	return n, nil
}

// replaceValue overwrites node n's value. A value that fits the node's
// capacity is stored in place, and the lengths word only when the length
// changes: a same-size overwrite leaves the node's first line untouched in
// both twins. A larger value moves the key to a new node, stored at link
// (the predecessor's next word or the bucket slot), and n is freed.
func replaceValue(tx ptm.Tx, n, link ptm.Ptr, h uint64, key, val []byte) error {
	kl, vl, size, _ := bmLens(tx, n)
	off := bmValOff(kl, size)
	if off+len(val) > size {
		nn, err := newNode(tx, h, key, val)
		if err != nil {
			return err
		}
		tx.Store64(nn+bmNodeNext, tx.Load64(n+bmNodeNext))
		tx.Store64(link, uint64(nn))
		return tx.Free(n)
	}
	if len(val) != vl {
		tx.Store64(n+bmNodeLens, bmPack(kl, len(val), size))
	}
	if len(val) > 0 {
		tx.StoreBytes(n+ptm.Ptr(off), val)
	}
	return nil
}

// Delete removes key, reporting whether it was present.
func (m *ByteMap) Delete(tx ptm.Tx, key []byte) (bool, error) {
	obj := tx.Root(m.root)
	n, prev, slot, err := m.findNode(tx, obj, hashBytes(key), key)
	if err != nil || n.IsNil() {
		return false, err
	}
	next := tx.Load64(n + bmNodeNext)
	if prev.IsNil() {
		tx.Store64(slot, next)
	} else {
		tx.Store64(prev+bmNodeNext, next)
	}
	tx.Store64(obj+bmSize, tx.Load64(obj+bmSize)-1)
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
// a hash map). It stops at the first node that fails its lengths check and
// returns that error.
func (m *ByteMap) Range(tx ptm.Tx, reverse bool, fn func(key, val []byte) bool) error {
	obj := tx.Root(m.root)
	nb := int(tx.Load64(obj + bmNBkts))
	bkts := field(tx, obj, bmBuckets)
	for j := 0; j < nb; j++ {
		i := j
		if reverse {
			i = nb - 1 - j
		}
		for n := ptm.Ptr(tx.Load64(bkts + ptm.Ptr(i*8))); !n.IsNil(); n = field(tx, n, bmNodeNext) {
			kl, vl, size, err := bmLens(tx, n)
			if err != nil {
				return err
			}
			key := make([]byte, kl)
			tx.LoadBytes(n+bmNodeKey, key)
			val := make([]byte, vl)
			tx.LoadBytes(n+ptm.Ptr(bmValOff(kl, size)), val)
			if !fn(key, val) {
				return nil
			}
		}
	}
	return nil
}
