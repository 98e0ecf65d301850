// Package blackbox is a crash-surviving flight recorder: a small ring of
// fixed-size records living in the reserved tail of a shard's persistent
// device (core.Config.ReserveTail), written with the same pwb/fence
// primitives as the data it describes. The group committer records each
// batch's start (before its transaction begins) and its durable point
// (after its psync); recovery replays the ring into a typed Report, so
// "what was mid-flight at the crash" is read off the media instead of
// guessed from logs.
//
// Durability contract: Append stores one 64-byte (one cache line) record,
// write-backs the line and fences. A completed fence deterministically
// persists the line, so every record appended before a crash point is in
// the crash image except, at worst, the one being appended — and a torn
// newest slot fails its checksum and is simply dropped at replay. The
// recorder is diagnostic: nothing on the data path ever waits on it except
// the one fence per record, and a corrupt ring header reformats instead of
// failing recovery.
//
// Concurrency: a Recorder has a single writer at a time. The shard layer
// appends under the shard engine's writer lock (shard.Store.RecordFlight)
// because pmem.Device's mutation path is unsynchronized by design.
package blackbox

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/pmem"
)

// Kind classifies a flight-recorder record.
type Kind uint8

const (
	// KindBatchStart marks a group-commit batch about to begin its shard
	// transaction. It is fenced before the transaction's first store, so a
	// crash inside the batch always leaves its start on the media.
	KindBatchStart Kind = 1
	// KindBatchCommit marks a batch's durable point: its psync completed.
	// Data durability is implied — the psync happened before this record's
	// fence — so a commit record in a crash image certifies the batch.
	KindBatchCommit Kind = 2
	// kindRecovery marks a successful engine recovery on this device.
	kindRecovery Kind = 3
)

// String returns the report-facing name of the kind.
func (k Kind) String() string {
	switch k {
	case KindBatchStart:
		return "batch_start"
	case KindBatchCommit:
		return "batch_commit"
	case kindRecovery:
		return "recovery"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// MarshalJSON renders the kind as its name.
func (k Kind) MarshalJSON() ([]byte, error) { return json.Marshal(k.String()) }

// Record is one 64-byte flight-recorder entry. Seq is assigned by Append
// (monotonic per ring, 1-based); callers fill the rest.
type Record struct {
	Seq      uint64 `json:"seq"`
	Kind     Kind   `json:"kind"`
	BatchSeq uint64 `json:"batch_seq,omitempty"`
	// Req is the span checkpoint: the ReqID of the first request in the
	// batch (zero when the caller has no request spans).
	Req   uint64 `json:"req,omitempty"`
	Ops   uint32 `json:"ops,omitempty"`
	Conns uint32 `json:"conns,omitempty"`
	TsNs  int64  `json:"ts_ns"`
}

// On-media layout: one header line, then capacity record lines.
//
//	header:  magic(8) version(8) capacity(8) checksum(8) — checksum over the
//	         first three words
//	record:  seq(8) batchSeq(8) req(8) tsNs(8) ops(4) conns(4) kind(1)
//	         pad(15) checksum(8) — checksum over the first 56 bytes
//
// A record's slot is (seq-1) % capacity, so replay recovers ordering from
// the stored seqs alone and a wrapped ring keeps exactly the newest
// capacity records.
const (
	// recordSize is one record: exactly one cache line, so a record is one
	// pwb and torn records can only be whole-line absent or checksum-dead.
	recordSize = 64
	headerSize = 64
	// MinSize is the smallest usable ring: header plus four records.
	MinSize = headerSize + 4*recordSize
	// DefaultSize is the tail reservation the shard layer makes: 63 records
	// — enough to hold the recent-batch window of any realistic in-flight
	// set while costing one page of the device.
	DefaultSize = 4096

	magicWord = 0x31584f42424d4f52 // "ROMBBOX1", little-endian
	version   = 1
)

func checksum(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

// Recorder appends records to a formatted ring. Single writer; see the
// package comment.
type Recorder struct {
	dev  *pmem.Device
	base int
	cap  uint64
	// last is the seq of the newest appended record (0 on a fresh ring);
	// atomic only so metrics collectors can read it while the single writer
	// appends.
	last atomic.Uint64
	now  func() time.Time
}

// Open attaches to the ring in dev[base:base+size), replaying whatever
// records survive in it into a Report, and returns a Recorder positioned
// after the newest surviving record. A blank or corrupt ring header is
// (re)formatted — the flight recorder must never block recovery — with
// Report.Reformatted noting a non-blank one was discarded. size below
// MinSize is an error: the caller reserved too little tail.
func Open(dev *pmem.Device, base, size int) (*Recorder, *Report, error) {
	if size < MinSize {
		return nil, nil, fmt.Errorf("blackbox: %d bytes at offset %d below minimum %d", size, base, MinSize)
	}
	if base%pmem.LineSize != 0 {
		return nil, nil, fmt.Errorf("blackbox: base offset %d not line-aligned", base)
	}
	capacity := uint64((size - headerSize) / recordSize)
	r := &Recorder{dev: dev, base: base, cap: capacity, now: time.Now}
	rep := &Report{}
	if ok, blank := r.headerValid(); !ok {
		rep.Reformatted = !blank
		r.format()
		return r, rep, nil
	}
	recs := r.scan()
	rep.Records = recs
	rep.summarize()
	if n := len(recs); n > 0 {
		r.last.Store(recs[n-1].Seq)
	}
	return r, rep, nil
}

// Inspect replays the ring read-only — no format, no writes — for forensic
// dumps over crash images (romulus-recover -flight). A blank or corrupt
// header answers an empty report, never an error.
func Inspect(dev *pmem.Device, base, size int) *Report {
	if size < MinSize || base%pmem.LineSize != 0 {
		return &Report{}
	}
	r := &Recorder{dev: dev, base: base, cap: uint64((size - headerSize) / recordSize)}
	rep := &Report{}
	if ok, _ := r.headerValid(); !ok {
		return rep
	}
	rep.Records = r.scan()
	rep.summarize()
	return rep
}

// headerValid checks the ring header; blank reports an all-zero magic word
// (a never-formatted tail) as opposed to a corrupt one.
func (r *Recorder) headerValid() (ok, blank bool) {
	d := r.dev
	magic := d.Load64(r.base)
	if magic != magicWord {
		return false, magic == 0 && d.Load64(r.base+24) == 0
	}
	ver, capw := d.Load64(r.base+8), d.Load64(r.base+16)
	if d.Load64(r.base+24) != checksum(headerWords(magic, ver, capw)) {
		return false, false
	}
	// A capacity disagreeing with the reserved size means the tail was
	// resized; the old records' slots no longer map. Reformat.
	return ver == version && capw == r.cap, false
}

func headerWords(magic, ver, capw uint64) []byte {
	var b [24]byte
	binary.LittleEndian.PutUint64(b[0:], magic)
	binary.LittleEndian.PutUint64(b[8:], ver)
	binary.LittleEndian.PutUint64(b[16:], capw)
	return b[:]
}

// format writes a fresh header and zeroes the record slots, durably.
func (r *Recorder) format() {
	d := r.dev
	d.Memset(r.base, 0, headerSize+int(r.cap)*recordSize)
	var h [32]byte
	binary.LittleEndian.PutUint64(h[0:], magicWord)
	binary.LittleEndian.PutUint64(h[8:], version)
	binary.LittleEndian.PutUint64(h[16:], r.cap)
	binary.LittleEndian.PutUint64(h[24:], checksum(h[:24]))
	d.StoreBytes(r.base, h[:])
	d.PwbRange(r.base, headerSize+int(r.cap)*recordSize)
	d.Pfence()
	r.last.Store(0)
}

// scan reads every slot, keeps checksum-valid records, and returns them
// sorted by seq — the newest min(cap, appended) records of the ring.
func (r *Recorder) scan() []Record {
	var recs []Record
	var raw [recordSize]byte
	for slot := uint64(0); slot < r.cap; slot++ {
		off := r.base + headerSize + int(slot)*recordSize
		r.dev.LoadBytes(off, raw[:])
		if rec, ok := decode(raw[:], slot, r.cap); ok {
			recs = append(recs, rec)
		}
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].Seq < recs[j].Seq })
	return recs
}

func decode(raw []byte, slot, capacity uint64) (Record, bool) {
	if binary.LittleEndian.Uint64(raw[56:]) != checksum(raw[:56]) {
		return Record{}, false
	}
	rec := Record{
		Seq:      binary.LittleEndian.Uint64(raw[0:]),
		BatchSeq: binary.LittleEndian.Uint64(raw[8:]),
		Req:      binary.LittleEndian.Uint64(raw[16:]),
		TsNs:     int64(binary.LittleEndian.Uint64(raw[24:])),
		Ops:      binary.LittleEndian.Uint32(raw[32:]),
		Conns:    binary.LittleEndian.Uint32(raw[36:]),
		Kind:     Kind(raw[40]),
	}
	// A zero seq is an empty slot (checksum of zeroes never validates, but
	// be explicit); a seq that does not map to this slot is stale garbage,
	// and so is anything in the padding, which Append leaves zero.
	padding := binary.LittleEndian.Uint64(raw[41:]) | binary.LittleEndian.Uint64(raw[48:])
	if rec.Seq == 0 || (rec.Seq-1)%capacity != slot || rec.Kind == 0 || padding != 0 {
		return Record{}, false
	}
	return rec, true
}

// encode lays rec out as one ring slot: its fields, zero padding, and the
// checksum over both.
func encode(rec Record) [recordSize]byte {
	var raw [recordSize]byte
	binary.LittleEndian.PutUint64(raw[0:], rec.Seq)
	binary.LittleEndian.PutUint64(raw[8:], rec.BatchSeq)
	binary.LittleEndian.PutUint64(raw[16:], rec.Req)
	binary.LittleEndian.PutUint64(raw[24:], uint64(rec.TsNs))
	binary.LittleEndian.PutUint32(raw[32:], rec.Ops)
	binary.LittleEndian.PutUint32(raw[36:], rec.Conns)
	raw[40] = byte(rec.Kind)
	binary.LittleEndian.PutUint64(raw[56:], checksum(raw[:56]))
	return raw
}

// Append durably writes one record: store, write-back, fence. Seq and TsNs
// are assigned here. The caller must serialize Append with every other
// mutator of the same device (see the package comment).
func (r *Recorder) Append(rec Record) {
	rec.Seq = r.last.Add(1)
	rec.TsNs = r.now().UnixNano()
	raw := encode(rec)
	off := r.base + headerSize + int((rec.Seq-1)%r.cap)*recordSize
	r.dev.StoreBytes(off, raw[:])
	r.dev.Pwb(off)
	r.dev.Pfence()
}

// Recovery records a successful engine recovery.
func (r *Recorder) Recovery() { r.Append(Record{Kind: kindRecovery}) }

// Appended returns the seq of the newest record — the ring's lifetime
// append count, resumed across reopens. Safe to call concurrently with
// Append (metrics collectors read it while the committer records).
func (r *Recorder) Appended() uint64 { return r.last.Load() }

// Report is the replayed state of a ring: the surviving records plus the
// derived forensic summary.
type Report struct {
	// Shard is filled by the shard layer (the ring itself is shard-blind).
	Shard int `json:"shard"`
	// Reformatted notes that Open found a non-blank but corrupt header and
	// discarded the ring.
	Reformatted bool `json:"reformatted,omitempty"`
	// Records are the surviving records, oldest first — at most the ring's
	// capacity, so only the newest window of a long run is retained.
	Records []Record `json:"records"`
	// MaxBatchStarted and MaxBatchCommitted are the highest batch seqs with
	// a surviving start / commit record (zero when none survive).
	MaxBatchStarted   uint64 `json:"max_batch_started"`
	MaxBatchCommitted uint64 `json:"max_batch_committed"`
	// InFlight lists batch seqs whose start survived but whose commit record
	// did not: the batch was mid-flight at the crash — or its data psync
	// completed and the crash landed before the commit record's fence, so
	// "in flight" means "commit unconfirmed; the recovered data decides".
	InFlight []uint64 `json:"in_flight,omitempty"`
	// Recoveries counts surviving recovery records (prior crash chain depth
	// within the retained window).
	Recoveries int `json:"recoveries"`
}

// summarize derives the forensic fields from Records.
func (r *Report) summarize() {
	committed := map[uint64]bool{}
	for _, rec := range r.Records {
		if rec.Kind == KindBatchCommit {
			committed[rec.BatchSeq] = true
			if rec.BatchSeq > r.MaxBatchCommitted {
				r.MaxBatchCommitted = rec.BatchSeq
			}
		}
	}
	for _, rec := range r.Records {
		switch rec.Kind {
		case KindBatchStart:
			if rec.BatchSeq > r.MaxBatchStarted {
				r.MaxBatchStarted = rec.BatchSeq
			}
			if !committed[rec.BatchSeq] {
				r.InFlight = append(r.InFlight, rec.BatchSeq)
			}
		case kindRecovery:
			r.Recoveries++
		}
	}
}

// Empty reports a ring with no surviving records.
func (r *Report) Empty() bool { return r == nil || len(r.Records) == 0 }

// String is the one-line summary binaries log at startup.
func (r *Report) String() string {
	if r.Empty() {
		return "flight recorder: empty"
	}
	return fmt.Sprintf("flight recorder: %d records, max batch started %d, committed %d, %d in flight, %d recoveries",
		len(r.Records), r.MaxBatchStarted, r.MaxBatchCommitted, len(r.InFlight), r.Recoveries)
}

// WriteJSON writes the report as one JSON object.
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	return enc.Encode(r)
}

// WriteText renders the record timeline human-readably, oldest first.
func (r *Report) WriteText(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "shard %d %s\n", r.Shard, r.String()); err != nil {
		return err
	}
	for _, rec := range r.Records {
		line := fmt.Sprintf("  #%d %s", rec.Seq, rec.Kind)
		if rec.BatchSeq != 0 {
			line += fmt.Sprintf(" batch=%d", rec.BatchSeq)
		}
		if rec.Req != 0 {
			line += fmt.Sprintf(" req=%d", rec.Req)
		}
		if rec.Ops != 0 {
			line += fmt.Sprintf(" ops=%d", rec.Ops)
		}
		if rec.Conns != 0 {
			line += fmt.Sprintf(" conns=%d", rec.Conns)
		}
		line += fmt.Sprintf(" ts=%s", time.Unix(0, rec.TsNs).UTC().Format(time.RFC3339Nano))
		if _, err := fmt.Fprintln(w, line); err != nil {
			return err
		}
	}
	return nil
}
