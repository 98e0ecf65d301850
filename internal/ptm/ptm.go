// Package ptm defines the persistent-transactional-memory interface shared
// by every engine in this repository: the three Romulus variants, the
// undo-log baseline (PMDK-style) and the redo-log baseline (Mnemosyne-style).
//
// Persistent data lives in a simulated persistent region (internal/pmem) and
// is addressed by Ptr values: byte offsets from the start of the user heap's
// address space (the "main" region in Romulus terms). Ptr 0 is the nil
// pointer. Because Go has no operator overloading, the persist<T>
// interposition of the original C++ implementation becomes explicit: all
// loads and stores of persistent data go through a Tx, which is where each
// engine hooks its logging, flushing, and (for RomulusLR readers and the
// redo-log engine) load redirection.
package ptm

import (
	"errors"
	"fmt"
	"time"
)

// Ptr is a persistent pointer: a byte offset within the persistent heap
// address space. The zero value is the nil pointer.
type Ptr uint64

// IsNil reports whether p is the nil persistent pointer.
func (p Ptr) IsNil() bool { return p == 0 }

// LineSize is the cache line: the unit a pwb writes back. ChunkHeader is the
// allocator's header in front of every block Alloc returns.
const (
	LineSize    = 64
	ChunkHeader = 16
)

// NumRoots is the size of the root-pointer array (the paper's "objects
// array") through which user code reaches persisted objects after a restart.
const NumRoots = 64

// ErrOutOfMemory is returned by Tx.Alloc when the persistent heap cannot
// satisfy the request.
var ErrOutOfMemory = errors.New("ptm: persistent heap exhausted")

// ErrBadFree is returned by Tx.Free for a pointer that does not address an
// allocated block.
var ErrBadFree = errors.New("ptm: free of invalid pointer")

// ErrCorruptHeader is returned (wrapped) by an engine's Open when the
// persistent header carries a valid magic but fails its checksum — torn or
// corrupted head metadata that must be reported as a typed error rather
// than interpreted as layout. Recovery cannot proceed on such a device.
var ErrCorruptHeader = errors.New("ptm: persistent header failed checksum")

// ErrCorruptLog is returned (wrapped) by an engine's Open when a persistent
// log region is structurally invalid (entries running off the log, counts
// exceeding capacity). Applying such a log would corrupt the heap, so
// recovery refuses instead.
var ErrCorruptLog = errors.New("ptm: persistent log is structurally invalid")

// ErrCorruptPayload is returned (wrapped) by an engine's Open when the data
// payload itself fails validation even though the header and logs parse —
// for the Romulus twin-copy engines, a byte divergence between main and back
// at a quiescent (IDL) open. A crash cannot produce that state (IDL is only
// published after both copies agree durably), so it is the signature of
// at-rest corruption: bit rot, a torn non-atomic medium, or tooling damage.
// Engines refuse to serve rather than guess which copy is right.
var ErrCorruptPayload = errors.New("ptm: persistent payload failed validation")

// HeaderChecksum mixes header words into the checksum engines store in
// their persistent header line and verify at Open, so torn head metadata is
// detected (ErrCorruptHeader) instead of silently trusted. The mixing
// follows splitmix64's finalizer, applied per word over a running state.
func HeaderChecksum(words ...uint64) uint64 {
	h := uint64(0x9E3779B97F4A7C15)
	for _, w := range words {
		h ^= w
		h ^= h >> 30
		h *= 0xBF58476D1CE4E5B9
		h ^= h >> 27
		h *= 0x94D049BB133111EB
		h ^= h >> 31
	}
	return h
}

// Tx is a transaction handle. All accesses to persistent data inside a
// transaction must go through it. A Tx is only valid for the duration of the
// function it was passed to and must not be retained or shared.
//
// Read-only transactions must not call the mutating methods; engines are
// free to panic if they do.
type Tx interface {
	// Load8, Load16, Load32 and Load64 read little-endian values at p.
	Load8(p Ptr) byte
	Load16(p Ptr) uint16
	Load32(p Ptr) uint32
	Load64(p Ptr) uint64
	// LoadBytes fills dst from the bytes starting at p.
	LoadBytes(p Ptr, dst []byte)

	// Store8, Store16, Store32 and Store64 write little-endian values at p.
	Store8(p Ptr, v byte)
	Store16(p Ptr, v uint16)
	Store32(p Ptr, v uint32)
	Store64(p Ptr, v uint64)
	// StoreBytes writes src at p.
	StoreBytes(p Ptr, src []byte)

	// Alloc allocates n bytes of zeroed persistent memory. The allocation is
	// part of the transaction: if the transaction does not commit, neither
	// does the allocation (no leaks, no metadata corruption; §4.4).
	Alloc(n int) (Ptr, error)
	// AllocAligned is Alloc for a block whose allocator chunk starts on a
	// cache line. The chunk header fills the line's first ChunkHeader bytes,
	// so p%LineSize == ChunkHeader, and a request of k*LineSize-ChunkHeader
	// bytes fills exactly k lines.
	AllocAligned(n int) (Ptr, error)
	// Free releases an allocation made by Alloc or AllocAligned, also
	// transactionally.
	Free(p Ptr) error

	// Root returns root pointer i (0 <= i < NumRoots).
	Root(i int) Ptr
	// SetRoot durably publishes a root pointer. Mutating; update-only.
	SetRoot(i int, p Ptr)
}

// TxStats counts transactions executed by an engine.
type TxStats struct {
	UpdateTxs uint64 // committed update transactions
	ReadTxs   uint64 // completed read-only transactions
	Combined  uint64 // update operations executed by a flat-combining pass on behalf of another thread

	// Batch counters (flat-combined engines only; zero elsewhere). A batch
	// is one committed durability round: one log replay / main→back sync and
	// one set of commit fences shared by every operation it carries, so
	// BatchOps/Batches is the fence-amortization factor.
	Batches  uint64 // committed durability rounds
	BatchOps uint64 // update operations retired across those rounds

	// Replication counters (twin-copy engines only; zero elsewhere).
	// ReplicatedBytes counts bytes copied between the twin copies when
	// bringing the stale copy up to date at commit — and, symmetrically,
	// when restoring main at rollback; ReplicateExtents counts the
	// contiguous ranges those copies were issued as. Together they measure
	// replication write amplification: replicating the stored cache lines,
	// ReplicatedBytes/UpdateTxs is O(lines stored), where a full-prefix
	// replicator pays O(heap watermark) per round.
	ReplicatedBytes  uint64
	ReplicateExtents uint64
}

// RecoveryStats describes the recovery work one Open of a twin-copy engine
// performed: what it found on the media and what it took to repair it.
type RecoveryStats struct {
	// State is the transaction state word found: 0 IDL (no recovery; the
	// twins were verified equal instead), 1 MUT (crashed mid-mutation: main
	// restored from back), 2 CPY (back completed from main — also what a
	// clean stop leaves, since the idle marker after replication is never
	// written back, and then nothing differs); anything else was handled
	// like 1.
	State uint64
	// Compared is the bytes of each twin compared (the watermark prefix);
	// zero under the whole-prefix ablation, which copies without looking.
	Compared uint64
	// Lines is the cache lines copied and written back, Extents the
	// contiguous runs they formed.
	Lines, Extents uint64
	// Ns is the wall-clock time Open spent recovering and verifying.
	Ns uint64
}

// String renders the stats as one log line.
func (r RecoveryStats) String() string {
	found := "unrecognized state word, main restored from back"
	switch r.State {
	case 0:
		found = "IDL, twins verified equal"
	case 1:
		found = "MUT, main restored from back"
	case 2:
		found = "CPY, back completed from main"
	}
	return fmt.Sprintf("found %s: %d bytes compared, %d line(s) in %d extent(s) repaired, %v",
		found, r.Compared, r.Lines, r.Extents, time.Duration(r.Ns))
}

// PTM is a persistent transactional memory engine.
//
// Update runs fn in a durably-linearizable update transaction. If fn returns
// nil, all its persistent effects are atomically durable when Update
// returns. If fn returns an error (or panics), the engine rolls every
// persistent effect back — Romulus engines do this with the twin copy, the
// baselines with their logs — and Update returns the error (or re-panics).
//
// Read runs fn in a read-only transaction. Read transactions never abort;
// under RomulusLR they are wait-free.
//
// Update and Read are safe for concurrent use from any number of
// goroutines: no caller registers with an engine or holds per-thread state
// between calls.
type PTM interface {
	// Name identifies the engine in benchmark output ("rom", "romlog",
	// "romlr", "mne", "pmdk").
	Name() string
	Update(fn func(Tx) error) error
	Read(fn func(Tx) error) error
	// Stats returns transaction counters since engine creation.
	Stats() TxStats
	// Close releases engine resources. The persistent image remains valid.
	Close() error
}

// Auditor observes an engine's durability protocol from the outside. The
// engine calls TxBegin/TxEnd around each update-side protocol section (an
// update transaction, a format, a recovery) so stores can be attributed to a
// writer, and DurablePoint at every point where its protocol claims all
// prior effects are persistent — in Romulus terms, immediately after the
// psync that advances the commit marker (§4.1). EngineClose marks the final
// durability claim when the engine shuts down.
//
// Implementations live outside the engines (internal/audit); engines only
// hold the interface so auditing adds no dependency and, when nil, no cost
// beyond a branch.
type Auditor interface {
	TxBegin(engine, kind string)
	TxEnd()
	DurablePoint(point string)
	EngineClose(engine string)
}

// Align rounds n up to the next multiple of a (a power of two).
func Align(n, a int) int { return (n + a - 1) &^ (a - 1) }
