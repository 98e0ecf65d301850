package shard

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"sync"
	"sync/atomic"

	"repro/internal/kvstore"
	"repro/internal/pmem"
	"repro/internal/ptm"
)

// Coordinator log layout. The log is a tiny standalone device holding at
// most ONE in-flight cross-shard batch; cross-shard commits serialize on it
// (single-key traffic and single-shard batches never touch it).
//
//	line 0 (header):  magic | version | headSum | state word
//	line 1 (meta):    batch id | payload length | payload checksum
//	line 2+:          encoded batch payload
//
// The state word is the protocol's single linchpin: its high 16 bits are a
// tag (free / prepared) and its low 48 bits the batch id, so both protocol
// transitions — free(n) → prepared(n+1) at prepare, prepared(n) → free(n)
// at done — are ONE 8-byte store each. Words persist atomically under every
// crash policy (including word-tearing, which tears between words, not
// within them), so recovery can never observe a half-written transition or
// a done record whose id regressed relative to its tag.
//
// Two-phase protocol, and why recovery's two arms are forced:
//
//	prepare: payload + meta stored and FENCED, then the state word flips to
//	         prepared(id) and is psync'd. Shard applies begin only after
//	         that psync. Therefore at recovery, tag != prepared proves no
//	         shard ever applied a slice of the in-flight batch — rolling it
//	         back (presumed abort: simply not replaying it) is sound.
//	applies: each involved shard applies its slice in ONE engine transaction
//	         that also advances the shard's applied-batch watermark (root
//	         slot 1, twin-copied with the data). "watermark >= id" is thus
//	         exactly "this shard durably holds batch id", making replay
//	         idempotent per shard.
//	done:    the state word flips back to free(id) and is psync'd. A crash
//	         before that psync leaves tag == prepared with meta and payload
//	         intact (they were fenced before the prepare flip and are never
//	         touched during applies), so recovery replays the batch to every
//	         shard the watermark proves behind — roll-forward is always
//	         possible, never partial.
const (
	cOffMagic   = 0
	cOffVersion = 8
	cOffHeadSum = 16
	cOffState   = 24

	cOffBatchID = 64
	cOffPayLen  = 72
	cOffPaySum  = 80

	cPayloadBase = 128

	cMagic    = 0x44524853584d4f52 // "ROMXSHRD" little-endian
	cVersion  = 1
	cHeadSalt = 0x5ec0de5ec0de5ec0

	cIDMask      = (uint64(1) << 48) - 1
	cTagFree     = uint64(0xF5EE) << 48
	cTagPrepared = uint64(0x95E9) << 48
	cTagMask     = ^cIDMask
)

// Exported coordinator recovery errors.
var (
	// ErrCorruptHeader means the coordinator log carries the magic number
	// but its header fails validation — not a crash artifact (the format
	// protocol publishes the magic last), so recovery refuses to guess.
	ErrCorruptHeader = errors.New("shard: corrupt coordinator header")
	// ErrCorruptLog means a prepared record's meta or payload fails its
	// checksum. The protocol fences both before publishing the prepared
	// state, so this too cannot be a crash artifact.
	ErrCorruptLog = errors.New("shard: corrupt coordinator log record")
)

type coordinator struct {
	mu     sync.Mutex
	dev    *pmem.Device
	aud    ptm.Auditor
	lastID uint64
	// wedged records an apply-phase failure: the record stays prepared and
	// further cross-shard commits are refused until a reopen resolves it.
	wedged error

	prepares  atomic.Uint64
	commits   atomic.Uint64
	aborts    atomic.Uint64
	replays   atomic.Uint64
	rollbacks atomic.Uint64

	// Test hooks (nil in production) let crash tests capture multi-device
	// images at exact protocol points instead of counting events.
	testAfterPrepare    func()          // after the prepare psync + audit point
	testAfterStateStore func()          // after the prepared state-word store, before its pwb/psync
	testAfterApply      func(shard int) // after each shard's apply during commit
}

func stFree(id uint64) uint64     { return cTagFree | (id & cIDMask) }
func stPrepared(id uint64) uint64 { return cTagPrepared | (id & cIDMask) }

// openCoordinator formats a fresh log or recovers an existing one, resolving
// any in-doubt batch against the store's (already recovered) shards.
func openCoordinator(dev *pmem.Device, s *Store, aud ptm.Auditor) (*coordinator, error) {
	c := &coordinator{dev: dev, aud: aud}
	if dev.Load64(cOffMagic) != cMagic {
		// No magic: a fresh device, or a format that crashed before its
		// final publish — either way nothing was ever prepared here.
		c.format()
		return c, nil
	}
	if dev.Load64(cOffVersion) != cVersion ||
		dev.Load64(cOffHeadSum) != cMagic^cVersion^cHeadSalt {
		return nil, ErrCorruptHeader
	}

	// Fold the shards' applied watermarks into the id floor. The atomic
	// state word already prevents id regression; this guards the one case
	// it cannot — a corrupted state word repaired below — since reusing an
	// id a shard has already applied would break replay idempotency.
	maxApplied := uint64(0)
	for i, p := range s.parts() {
		w, err := p.appliedID()
		if err != nil {
			return nil, fmt.Errorf("shard %d: reading applied watermark: %w", i, err)
		}
		if w > maxApplied {
			maxApplied = w
		}
	}

	word := dev.Load64(cOffState)
	tag, id := word&cTagMask, word&cIDMask
	switch tag {
	case cTagFree:
		c.lastID = max(id, maxApplied)
		if metaID := dev.Load64(cOffBatchID); metaID > c.lastID {
			// A prepare attempt durably staged its meta but its state flip
			// never persisted: no shard can have applied it (applies gate on
			// the flip's psync), so the record is simply abandoned.
			c.rollbacks.Add(1)
		}
	case cTagPrepared:
		if err := c.replay(s, id); err != nil {
			if errors.Is(err, ErrShardUnavailable) {
				// The in-doubt batch involves a quarantined shard: the healthy
				// shards' slices were rolled forward above, the record stays
				// prepared, and the coordinator wedges until a Scrub readmits
				// the shard and resolve() can finish the roll-forward.
				c.wedged = err
			} else {
				return nil, err
			}
		}
		c.lastID = max(id, maxApplied)
	default:
		// A garbage tag is outside the crash model (both transitions are
		// single-word stores of valid tags); presume abort, repair the word
		// durably, and continue with the watermark-derived id floor.
		c.lastID = maxApplied
		c.publishState(stFree(c.lastID), "xshard-repair")
		c.rollbacks.Add(1)
	}
	return c, nil
}

// format initializes a fresh log. Failure-atomic: the magic is published
// last, so a crash mid-format leaves a magicless device that the next open
// formats again from scratch.
func (c *coordinator) format() {
	d := c.dev
	if a := c.aud; a != nil {
		a.TxBegin("xshard-coord", "format")
		defer a.TxEnd()
	}
	d.Store64(cOffVersion, cVersion)
	d.Store64(cOffHeadSum, cMagic^cVersion^cHeadSalt)
	d.Store64(cOffState, stFree(0))
	d.Pwb(cOffMagic)
	d.Pfence()
	d.Store64(cOffMagic, cMagic)
	d.Pwb(cOffMagic)
	d.Psync()
	if a := c.aud; a != nil {
		a.DurablePoint("coord-format")
	}
}

// publishState durably writes the state word and checks the durable point.
func (c *coordinator) publishState(word uint64, point string) {
	d := c.dev
	d.Store64(cOffState, word)
	d.Pwb(cOffState)
	d.Psync()
	if a := c.aud; a != nil {
		a.DurablePoint(point)
	}
}

// replay rolls an in-doubt prepared batch forward: every involved shard
// whose watermark is behind the batch id applies its slice, then the done
// transition retires the record. Idempotent — safe under crash-during-
// recovery chains of any depth.
func (c *coordinator) replay(s *Store, id uint64) error {
	d := c.dev
	meta := [3]uint64{d.Load64(cOffBatchID), d.Load64(cOffPayLen), d.Load64(cOffPaySum)}
	groups, err := decodePrepared(id, meta, d.Size(), func(n int) []byte {
		payload := make([]byte, n)
		d.LoadBytes(cPayloadBase, payload)
		return payload
	}, len(s.parts()))
	if err != nil {
		return fmt.Errorf("%w: %v", ErrCorruptLog, err)
	}
	// Healthy shards roll forward first; quarantined involved shards block
	// the done transition (the record must stay replayable for them), so the
	// caller wedges instead of retiring the batch.
	var blocked []int
	parts := s.parts()
	for i, g := range groups {
		if g == nil {
			continue
		}
		if parts[i].faulted.Load() {
			blocked = append(blocked, i)
			continue
		}
		w, err := parts[i].appliedID()
		if err != nil {
			return fmt.Errorf("shard %d: reading applied watermark: %w", i, err)
		}
		if w >= id {
			continue // this shard's slice already durable
		}
		if err := parts[i].applyPrepared(id, g); err != nil {
			return fmt.Errorf("shard %d: replaying batch %d: %w", i, id, err)
		}
	}
	if len(blocked) > 0 {
		return fmt.Errorf("shard: batch %d in doubt, involved shard(s) %v quarantined: %w",
			id, blocked, ErrShardUnavailable)
	}
	if a := c.aud; a != nil {
		a.TxBegin("xshard-coord", "replay-done")
	}
	c.publishState(stFree(id), "xshard-done")
	if a := c.aud; a != nil {
		a.TxEnd()
	}
	c.replays.Add(1)
	return nil
}

// commit runs the two-phase protocol for a batch spanning multiple shards.
// groups is indexed by shard; nil entries are uninvolved shards.
func (c *coordinator) commit(s *Store, groups []*kvstore.Batch) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.wedged != nil {
		return fmt.Errorf("shard: coordinator wedged by earlier apply failure (reopen or scrub to resolve): %w", c.wedged)
	}
	// Refuse upfront if any involved shard is quarantined: preparing a batch
	// that cannot complete would only wedge the coordinator.
	parts := s.parts()
	for i, g := range groups {
		if g != nil && parts[i].faulted.Load() {
			c.aborts.Add(1)
			return s.unavail(i)
		}
	}

	payload := encodeOps(groups)
	if cPayloadBase+len(payload) > c.dev.Size()-placementReserve {
		c.aborts.Add(1)
		return fmt.Errorf("shard: batch payload (%d bytes) exceeds coordinator log capacity (%d)",
			len(payload), c.dev.Size()-placementReserve-cPayloadBase)
	}
	id := c.lastID + 1
	d := c.dev

	// Prepare: payload and meta become durable (fence), THEN the prepared
	// state word is published (psync). Order is everything — see the layout
	// comment.
	if a := c.aud; a != nil {
		a.TxBegin("xshard-coord", "prepare")
	}
	d.StoreBytes(cPayloadBase, payload)
	d.PwbRange(cPayloadBase, len(payload))
	d.Store64(cOffBatchID, id)
	d.Store64(cOffPayLen, uint64(len(payload)))
	d.Store64(cOffPaySum, payloadSum(payload))
	d.Pwb(cOffBatchID) // meta shares one line
	d.Pfence()
	d.Store64(cOffState, stPrepared(id))
	if fn := c.testAfterStateStore; fn != nil {
		fn()
	}
	d.Pwb(cOffState)
	d.Psync()
	if a := c.aud; a != nil {
		a.DurablePoint("xshard-prepare")
		a.TxEnd()
	}
	c.prepares.Add(1)
	if fn := c.testAfterPrepare; fn != nil {
		fn()
	}

	// Applies: one durable shard transaction per involved shard, ascending
	// index order (deterministic for crash tests; no lock ordering concerns
	// since the coordinator mutex serializes cross-shard commits).
	for i, g := range groups {
		if g == nil {
			continue
		}
		if err := parts[i].applyPrepared(id, g); err != nil {
			if errors.Is(err, pmem.ErrMediaFault) {
				s.quarantine(i, err)
			}
			c.lastID = id // the id is burned: the prepared record owns it
			c.wedged = fmt.Errorf("shard %d, batch %d: %w", i, id, err)
			return fmt.Errorf("shard: cross-shard apply failed, batch %d in doubt until reopen or scrub: %w", id, err)
		}
		if fn := c.testAfterApply; fn != nil {
			fn(i)
		}
	}

	// Done: a single-word state flip retires the record.
	if a := c.aud; a != nil {
		a.TxBegin("xshard-coord", "done")
	}
	c.publishState(stFree(id), "xshard-done")
	if a := c.aud; a != nil {
		a.TxEnd()
	}
	c.lastID = id
	c.commits.Add(1)
	return nil
}

// resolve finishes an in-doubt prepared batch in-process — the Scrub path's
// counterpart to openCoordinator's recovery arm. If the state word still
// says prepared, the record is replayed (idempotently: a freshly scrubbed
// shard has watermark 0 and reapplies its slice, shards that already hold
// the batch skip), and on success the wedge is cleared.
func (c *coordinator) resolve(s *Store) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	word := c.dev.Load64(cOffState)
	if word&cTagMask != cTagPrepared {
		c.wedged = nil
		return nil
	}
	id := word & cIDMask
	if err := c.replay(s, id); err != nil {
		c.wedged = err
		return fmt.Errorf("shard: resolving in-doubt batch %d: %w", id, err)
	}
	c.wedged = nil
	c.lastID = max(id, c.lastID)
	return nil
}

func (c *coordinator) close() {
	if a := c.aud; a != nil {
		if ca, ok := a.(interface{ EngineClose(string) }); ok {
			ca.EngineClose("xshard-coord")
		}
	}
}

// encodeOps serializes per-shard batches: u32 op count, then per op
// u32 shard | u8 del | u32 klen | u32 vlen | key | val (little-endian).
func encodeOps(groups []*kvstore.Batch) []byte {
	n := 0
	for _, g := range groups {
		if g != nil {
			n += g.Len()
		}
	}
	buf := binary.LittleEndian.AppendUint32(nil, uint32(n))
	for i, g := range groups {
		if g == nil {
			continue
		}
		g.Each(func(del bool, key, val []byte) {
			buf = binary.LittleEndian.AppendUint32(buf, uint32(i))
			if del {
				buf = append(buf, 1)
			} else {
				buf = append(buf, 0)
			}
			buf = binary.LittleEndian.AppendUint32(buf, uint32(len(key)))
			buf = binary.LittleEndian.AppendUint32(buf, uint32(len(val)))
			buf = append(buf, key...)
			buf = append(buf, val...)
		})
	}
	return buf
}

// decodePrepared decodes the prepared record of batch id in a log of size
// bytes: meta is the meta line (batch id, payload length, payload checksum)
// and load(n) reads the first n payload bytes. The meta must name id, the
// payload must fit below the placement reserve and match its checksum, and
// its ops must decode for nShards shards. Recovery's replay and the offline
// inspector both decode through it.
func decodePrepared(id uint64, meta [3]uint64, size int, load func(n int) []byte, nShards int) ([]*kvstore.Batch, error) {
	if meta[0] != id {
		return nil, fmt.Errorf("prepared state names batch %d but meta holds %d", id, meta[0])
	}
	payLen := int(meta[1])
	if payLen <= 0 || payLen > size-placementReserve-cPayloadBase {
		return nil, fmt.Errorf("payload length %d out of bounds", payLen)
	}
	payload := load(payLen)
	if payloadSum(payload) != meta[2] {
		return nil, errors.New("payload checksum mismatch")
	}
	return decodeOps(payload, nShards)
}

// decodeOps reverses encodeOps, validating every bound against the payload
// length and shard count. It accepts only what encodeOps writes: ops
// grouped by ascending shard, deletes without a value, no trailing bytes.
func decodeOps(payload []byte, nShards int) ([]*kvstore.Batch, error) {
	le := binary.LittleEndian
	if len(payload) < 4 {
		return nil, errors.New("payload truncated before op count")
	}
	n := int(le.Uint32(payload))
	pos, prev := 4, 0
	groups := make([]*kvstore.Batch, nShards)
	for op := 0; op < n; op++ {
		if pos+13 > len(payload) {
			return nil, fmt.Errorf("payload truncated in op %d header", op)
		}
		sh := int(le.Uint32(payload[pos:]))
		del := payload[pos+4]
		klen := int(le.Uint32(payload[pos+5:]))
		vlen := int(le.Uint32(payload[pos+9:]))
		pos += 13
		if sh >= nShards || sh < prev {
			return nil, fmt.Errorf("op %d routes to shard %d of %d after shard %d", op, sh, nShards, prev)
		}
		prev = sh
		if del > 1 || del == 1 && vlen != 0 {
			return nil, fmt.Errorf("op %d: malformed delete flag %d with %dB value", op, del, vlen)
		}
		if klen < 0 || vlen < 0 || pos+klen+vlen > len(payload) {
			return nil, fmt.Errorf("payload truncated in op %d body", op)
		}
		key := payload[pos : pos+klen]
		val := payload[pos+klen : pos+klen+vlen]
		pos += klen + vlen
		if groups[sh] == nil {
			groups[sh] = &kvstore.Batch{}
		}
		if del == 1 {
			groups[sh].Delete(key)
		} else {
			groups[sh].Put(key, val)
		}
	}
	if pos != len(payload) {
		return nil, fmt.Errorf("%d bytes past op %d", len(payload)-pos, n)
	}
	return groups, nil
}

// payloadSum is FNV-1a 64 over the encoded payload.
func payloadSum(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}
