// Package migrate is the elastic-sharding layer: a durable placement map
// (slot -> shard ownership) that replaces the store's implicit hash%N
// routing, plus the step-driven migration driver that moves a slice of a
// shard's keyspace to another shard online (copy-then-cutover).
//
// # Placement map
//
// Keys hash to one of NumSlots fixed slots (FNV-1a 64, like the old
// routing); each slot is owned by exactly one shard. The slot count is
// fixed at store creation as SlotsPerShard x the initial shard count, so
// the identity placement slots[i] = i % N routes every key exactly where
// hash%N routed it — stores created before placement existed adopt the
// identity map on open and observe no routing change. Migration moves
// ownership of whole slots; a "split" moves half of a shard's slots to a
// fresh shard.
//
// # Durable record
//
// The placement (and the migration journal embedded in it) persists in a
// small reserved area at the tail of the coordinator device, as two
// alternating record slots. A publish writes the full record (header:
// magic, sequence, payload length, FNV-1a checksum; then payload) into the
// slot NOT holding the newest valid record, then flushes and fences. A
// reader takes the valid slot with the highest sequence, so a crash that
// tears a publish leaves the previous record intact: placement changes are
// atomic. Ownership transfer during migration is a single record publish
// (the cutover), which is therefore also the migration's atomic commit
// point — see the Journal phases below.
//
// # Migration journal
//
// The record embeds one journal entry describing the in-flight migration:
//
//	PhaseNone    — no migration; Slots all owned per the map.
//	PhaseCopy    — slots listed in Journal are being copied src->dst; the
//	               map still routes them to src. Crash recovery rolls the
//	               migration BACK: wipe the partial copies from dst,
//	               publish PhaseNone. Source still owns every key.
//	PhaseCleanup — the cutover published: the same record flipped the
//	               moved slots to dst AND set this phase, atomically.
//	               Crash recovery rolls FORWARD: delete the moved keys
//	               still on src, publish PhaseNone. Dst owns every key.
//
// Either way recovery converges to exactly one owner per key.
package migrate

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"

	"repro/internal/pmem"
)

// DefaultSlotsPerShard fixes the placement granularity at store creation:
// NumSlots = SlotsPerShard x initial shards. Any initial shard count N
// divides SlotsPerShard*N, which is what makes the identity placement
// reproduce hash%N routing exactly.
const DefaultSlotsPerShard = 16

// RecordSize is the reserved placement area at the tail of the coordinator
// device: two alternating record slots of half this size each.
const RecordSize = 8 << 10

const (
	recMagic   = 0x45434c504d4f52 // "ROMPLCE" little-endian (7 bytes + high zero)
	recHdrSize = 32               // magic | seq | payload len | fnv64a(seq, payload)
	maxSlots   = 1 << 20
)

// Phase is the migration journal state.
type Phase uint32

const (
	PhaseNone    Phase = 0
	PhaseCopy    Phase = 1
	PhaseCleanup Phase = 2
)

func (p Phase) String() string {
	switch p {
	case PhaseNone:
		return "none"
	case PhaseCopy:
		return "copy"
	case PhaseCleanup:
		return "cleanup"
	}
	return fmt.Sprintf("phase(%d)", uint32(p))
}

// Journal is the embedded migration record: which slots are moving from
// Src to Dst, and how far the state machine got (see the package comment
// for the recovery meaning of each phase).
type Journal struct {
	Phase Phase  `json:"phase,omitempty"`
	ID    uint64 `json:"id,omitempty"`
	Src   int    `json:"src,omitempty"`
	Dst   int    `json:"dst,omitempty"`
	Slots []int  `json:"slots,omitempty"`
}

// MovingSet returns slot membership as a dense bitmap of size numSlots.
func (j *Journal) MovingSet(numSlots int) []bool {
	set := make([]bool, numSlots)
	for _, s := range j.Slots {
		if s >= 0 && s < numSlots {
			set[s] = true
		}
	}
	return set
}

// Placement is the routing truth: Slots[slot] names the owning shard.
// Version is the record sequence it was read from / published as.
type Placement struct {
	NumSlots  int     `json:"num_slots"`
	NumShards int     `json:"num_shards"`
	Slots     []int   `json:"slots"`
	Version   uint64  `json:"version"`
	Journal   Journal `json:"journal"`
}

// Identity builds the placement that reproduces hash%shards routing:
// slots*shards slots with slots[i] = i % shards.
func Identity(shards, slotsPerShard int) *Placement {
	if slotsPerShard <= 0 {
		slotsPerShard = DefaultSlotsPerShard
	}
	n := shards * slotsPerShard
	p := &Placement{NumSlots: n, NumShards: shards, Slots: make([]int, n)}
	for i := range p.Slots {
		p.Slots[i] = i % shards
	}
	return p
}

// Clone deep-copies the placement (journal slots included).
func (p *Placement) Clone() *Placement {
	q := *p
	q.Slots = append([]int(nil), p.Slots...)
	q.Journal.Slots = append([]int(nil), p.Journal.Slots...)
	return &q
}

// OwnedBy lists the slots shard owns, ascending.
func (p *Placement) OwnedBy(shard int) []int {
	var out []int
	for s, sh := range p.Slots {
		if sh == shard {
			out = append(out, s)
		}
	}
	return out
}

// Counts returns slots-per-shard ownership (index = shard).
func (p *Placement) Counts() []int {
	c := make([]int, p.NumShards)
	for _, sh := range p.Slots {
		if sh >= 0 && sh < len(c) {
			c[sh]++
		}
	}
	return c
}

// encode serializes the placement payload (everything but Version, which
// lives in the record header as the sequence).
func (p *Placement) encode() []byte {
	buf := make([]byte, 0, 8+4*len(p.Slots)+24+4*len(p.Journal.Slots))
	var u32 [4]byte
	var u64 [8]byte
	put32 := func(v uint32) {
		binary.LittleEndian.PutUint32(u32[:], v)
		buf = append(buf, u32[:]...)
	}
	put64 := func(v uint64) {
		binary.LittleEndian.PutUint64(u64[:], v)
		buf = append(buf, u64[:]...)
	}
	put32(uint32(p.NumSlots))
	put32(uint32(p.NumShards))
	for _, sh := range p.Slots {
		put32(uint32(sh))
	}
	put32(uint32(p.Journal.Phase))
	put64(p.Journal.ID)
	put32(uint32(p.Journal.Src))
	put32(uint32(p.Journal.Dst))
	put32(uint32(len(p.Journal.Slots)))
	for _, s := range p.Journal.Slots {
		put32(uint32(s))
	}
	return buf
}

func decodePlacement(b []byte) (*Placement, error) {
	pos := 0
	get32 := func() (uint32, bool) {
		if pos+4 > len(b) {
			return 0, false
		}
		v := binary.LittleEndian.Uint32(b[pos:])
		pos += 4
		return v, true
	}
	get64 := func() (uint64, bool) {
		if pos+8 > len(b) {
			return 0, false
		}
		v := binary.LittleEndian.Uint64(b[pos:])
		pos += 8
		return v, true
	}
	fail := func(what string) (*Placement, error) {
		return nil, fmt.Errorf("placement payload: truncated %s", what)
	}
	nSlots, ok := get32()
	if !ok {
		return fail("slot count")
	}
	nShards, ok := get32()
	if !ok {
		return fail("shard count")
	}
	if nSlots == 0 || nSlots > maxSlots || nShards == 0 || uint64(nShards) > uint64(nSlots) {
		return nil, fmt.Errorf("placement payload: implausible geometry (%d slots, %d shards)", nSlots, nShards)
	}
	p := &Placement{NumSlots: int(nSlots), NumShards: int(nShards), Slots: make([]int, nSlots)}
	for i := range p.Slots {
		sh, ok := get32()
		if !ok {
			return fail("slot table")
		}
		if sh >= nShards {
			return nil, fmt.Errorf("placement payload: slot %d owned by shard %d of %d", i, sh, nShards)
		}
		p.Slots[i] = int(sh)
	}
	ph, ok := get32()
	if !ok {
		return fail("journal phase")
	}
	if ph > uint32(PhaseCleanup) {
		return nil, fmt.Errorf("placement payload: unknown journal phase %d", ph)
	}
	p.Journal.Phase = Phase(ph)
	id, ok := get64()
	if !ok {
		return fail("journal id")
	}
	p.Journal.ID = id
	src, ok := get32()
	if !ok {
		return fail("journal src")
	}
	dst, ok := get32()
	if !ok {
		return fail("journal dst")
	}
	nMove, ok := get32()
	if !ok {
		return fail("journal slot count")
	}
	if nMove > nSlots {
		return nil, fmt.Errorf("placement payload: journal moves %d of %d slots", nMove, nSlots)
	}
	if p.Journal.Phase != PhaseNone {
		if src >= nShards || dst >= nShards || src == dst {
			return nil, fmt.Errorf("placement payload: journal src=%d dst=%d of %d shards", src, dst, nShards)
		}
		p.Journal.Src, p.Journal.Dst = int(src), int(dst)
	} else if src != 0 || dst != 0 {
		return nil, fmt.Errorf("placement payload: closed journal names src=%d dst=%d", src, dst)
	}
	for i := 0; i < int(nMove); i++ {
		s, ok := get32()
		if !ok {
			return fail("journal slots")
		}
		if s >= nSlots {
			return nil, fmt.Errorf("placement payload: journal slot %d of %d", s, nSlots)
		}
		p.Journal.Slots = append(p.Journal.Slots, int(s))
	}
	if pos != len(b) {
		return nil, fmt.Errorf("placement payload: %d bytes past the journal", len(b)-pos)
	}
	return p, nil
}

// recordSum covers the sequence number as well as the payload. A crash may
// persist a header at 8-byte granularity: were seq outside the sum, a torn
// publish that lands only the new seq word over the OLDER slot would leave
// that slot's stale payload valid under the newest sequence — a cutover
// record rolled back to its copy-phase predecessor after recovery had
// already purged src.
func recordSum(seq uint64, payload []byte) uint64 {
	var s [8]byte
	binary.LittleEndian.PutUint64(s[:], seq)
	h := fnv.New64a()
	h.Write(s[:])
	h.Write(payload)
	return h.Sum64()
}

// decodeSlot validates one record slot's header+payload from raw bytes,
// returning (nil, 0) when the slot holds no valid record (unformatted or
// torn — never an error: the other slot decides).
func decodeSlot(area []byte) (*Placement, uint64) {
	if len(area) < recHdrSize {
		return nil, 0
	}
	if binary.LittleEndian.Uint64(area[0:]) != recMagic {
		return nil, 0
	}
	seq := binary.LittleEndian.Uint64(area[8:])
	payLen := binary.LittleEndian.Uint64(area[16:])
	sum := binary.LittleEndian.Uint64(area[24:])
	if payLen == 0 || payLen > uint64(len(area)-recHdrSize) {
		return nil, 0
	}
	payload := area[recHdrSize : recHdrSize+int(payLen)]
	if recordSum(seq, payload) != sum {
		return nil, 0
	}
	p, err := decodePlacement(payload)
	if err != nil {
		return nil, 0
	}
	p.Version = seq
	return p, seq
}

// DecodeRecordBytes reads the newest valid placement from a raw copy of
// the record area (both slots), or nil when neither slot holds one.
func DecodeRecordBytes(area []byte) *Placement {
	half := len(area) / 2
	a, aSeq := decodeSlot(area[:half])
	b, bSeq := decodeSlot(area[half:])
	switch {
	case a == nil:
		return b
	case b == nil:
		return a
	case bSeq > aSeq:
		return b
	default:
		return a
	}
}

// ReadRecord loads the newest valid placement from the record area
// [base, base+size) of dev, or nil when the area holds none (a store from
// before placement existed, or a crash tore the very first publish).
func ReadRecord(dev *pmem.Device, base, size int) *Placement {
	area := make([]byte, size)
	dev.LoadBytes(base, area)
	return DecodeRecordBytes(area)
}

// WriteRecord publishes p into the record area [base, base+size) of dev:
// full record into the slot not holding the newest valid sequence, then
// flush + fence. On return p.Version is the published sequence. The caller
// serializes publishers (the store's coordinator mutex) and wraps the call
// in its durability-audit transaction.
func WriteRecord(dev *pmem.Device, base, size int, p *Placement) error {
	half := size / 2
	payload := p.encode()
	if recHdrSize+len(payload) > half {
		return fmt.Errorf("placement record: payload %dB exceeds slot %dB", len(payload), half-recHdrSize)
	}
	cur := ReadRecord(dev, base, size)
	seq := uint64(1)
	slot := 0
	if cur != nil {
		seq = cur.Version + 1
		// The newest record's slot must survive the publish: write the other.
		area := make([]byte, size)
		dev.LoadBytes(base, area)
		if a, aSeq := decodeSlot(area[:half]); a != nil {
			if b, bSeq := decodeSlot(area[half:]); b == nil || aSeq > bSeq {
				slot = 1
			}
		}
	}
	off := base + slot*half
	var hdr [recHdrSize]byte
	binary.LittleEndian.PutUint64(hdr[0:], recMagic)
	binary.LittleEndian.PutUint64(hdr[8:], seq)
	binary.LittleEndian.PutUint64(hdr[16:], uint64(len(payload)))
	binary.LittleEndian.PutUint64(hdr[24:], recordSum(seq, payload))
	dev.StoreBytes(off, hdr[:])
	dev.StoreBytes(off+recHdrSize, payload)
	dev.PwbRange(off, recHdrSize+len(payload))
	dev.Psync()
	p.Version = seq
	return nil
}
