// Package romulus is a Go reproduction of "Romulus: Efficient Algorithms
// for Persistent Transactional Memory" (Correia, Felber, Ramalhete,
// SPAA 2018): a persistent transactional memory that keeps twin copies of
// the data — main, mutated in place, and back, a byte-level snapshot of the
// last consistent state — so that an update transaction needs at most four
// persistence fences regardless of its size, no persistent log, and only
// store interposition.
//
// # Engines
//
// Three variants are provided, selected by Config.Variant:
//
//   - Rom: the basic algorithm (Algorithm 1), which replicates the whole
//     used prefix of main to back at commit — here the
//     Config.FullReplicate ablation; without it Rom runs RomLog's code;
//   - RomLog: a volatile record of the cache lines a transaction stored to
//     confines the replication to what actually changed (§4.7) — the
//     flagship;
//   - RomLR: RomLog combined with Left-Right synchronization (§5.3) —
//     read-only transactions are wait-free, reading the back copy through
//     synthetic pointers while a writer mutates main.
//
// Writers are serialized through a flat-combining queue behind a C-RW-WP
// reader-writer lock; batched operations share one durable transaction, so
// the average fence count per mutation can drop below four. No goroutine
// registers with an engine: Update and Read serve any number of callers.
//
// Two baseline engines from the paper's evaluation are also included (as
// internal packages, surfaced through the benchmark tools): a PMDK-style
// undo-log PTM and a Mnemosyne-style persistent-redo-log STM.
//
// # Persistent memory
//
// Go has no flush intrinsics, so persistent memory is simulated
// (internal/pmem): a byte-addressable region with separate volatile and
// persisted views, pwb/pfence/psync primitives with configurable models
// (CLWB, CLFLUSHOPT, CLFLUSH, STT-RAM, PCM), and adversarial crash
// simulation used heavily by the test suite. Persistent pointers are
// offsets (Ptr) within the region; loads and stores go through a Tx, which
// is where interposition — the C++ persist<T> wrapper of the original —
// happens explicitly.
//
// # Quick start
//
//	eng, err := romulus.New(64<<20, romulus.Config{})     // RomLog engine
//	err = eng.Update(func(tx romulus.Tx) error {           // durable tx
//	    p, err := tx.Alloc(16)
//	    if err != nil { return err }
//	    tx.Store64(p, 42)
//	    tx.SetRoot(0, p)
//	    return nil
//	})
//	err = eng.Read(func(tx romulus.Tx) error {             // read-only tx
//	    _ = tx.Load64(tx.Root(0))
//	    return nil
//	})
//
// Persistent data structures (sorted linked-list set, hash maps, red-black
// tree) live in the pstruct subpackage API re-exported here, and RomulusDB
// — a durable key-value store with a LevelDB-style interface — in kvstore.
package romulus

import (
	"io"

	"repro/internal/core"
	"repro/internal/kvstore"
	"repro/internal/pmem"
	"repro/internal/pstruct"
	"repro/internal/ptm"
)

// Core engine types.
type (
	// Engine is a Romulus persistent transactional memory.
	Engine = core.Engine
	// Config tunes an Engine; the zero value is the paper's RomulusLog.
	Config = core.Config
	// Variant selects the algorithm (Rom, RomLog, RomLR).
	Variant = core.Variant
	// Tx is a transaction handle; all persistent accesses go through it.
	Tx = ptm.Tx
	// Ptr is a persistent pointer (region offset); 0 is nil.
	Ptr = ptm.Ptr
	// PTM is the engine-independent transactional-memory interface.
	PTM = ptm.PTM
	// TxStats counts transactions executed by an engine.
	TxStats = ptm.TxStats
	// Device is the simulated persistent-memory device.
	Device = pmem.Device
	// Model describes persistence-primitive behaviour and latency.
	Model = pmem.Model
	// CrashPolicy controls the fate of unfenced data at a simulated
	// power failure.
	CrashPolicy = pmem.CrashPolicy
)

// Engine variants.
const (
	// Rom is the basic twin-copy algorithm. It runs RomLog's code; the
	// paper's whole-prefix replication is the FullReplicate ablation.
	Rom = core.Rom
	// RomLog replicates only the cache lines a transaction stored to (the
	// default).
	RomLog = core.RomLog
	// RomLR adds Left-Right synchronization: wait-free readers.
	RomLR = core.RomLR
)

// NumRoots is the size of the root-pointer array.
const NumRoots = ptm.NumRoots

// Persistence models (§6.6 of the paper).
var (
	ModelDRAM       = pmem.ModelDRAM
	ModelCLWB       = pmem.ModelCLWB
	ModelCLFLUSHOPT = pmem.ModelCLFLUSHOPT
	ModelCLFLUSH    = pmem.ModelCLFLUSH
	ModelSTT        = pmem.ModelSTT
	ModelPCM        = pmem.ModelPCM
)

// Common errors.
var (
	// ErrOutOfMemory reports an exhausted persistent heap.
	ErrOutOfMemory = ptm.ErrOutOfMemory
	// ErrBadFree reports a Free of a pointer that is not a live allocation.
	ErrBadFree = ptm.ErrBadFree
	// ErrNotFound reports a missing key in a persistent data structure.
	ErrNotFound = pstruct.ErrNotFound
)

// New creates a fresh engine with twin copies of regionSize bytes.
func New(regionSize int, cfg Config) (*Engine, error) {
	return core.New(regionSize, cfg)
}

// Open attaches an engine to an existing device, running crash recovery if
// the device holds an interrupted instance.
func Open(dev *Device, cfg Config) (*Engine, error) {
	return core.Open(dev, cfg)
}

// OpenFile loads a persisted image from disk (written with
// Engine.Device().SaveFile or Engine.SnapshotToFile) and opens an engine
// over it.
func OpenFile(path string, cfg Config) (*Engine, error) {
	dev, err := pmem.LoadFile(path, cfg.Model)
	if err != nil {
		return nil, err
	}
	return core.Open(dev, cfg)
}

// RestoreSnapshot opens an engine over an online-backup image written by
// Engine.Snapshot. Snapshots are consistent cuts taken through the writer
// path: the twin-copy design makes the back region a byte-exact committed
// state, so backups cost one lock acquisition plus the write itself.
func RestoreSnapshot(r io.Reader, cfg Config) (*Engine, error) {
	return core.RestoreSnapshot(r, cfg)
}

// Persistent data structures (see internal/pstruct for details).
type (
	// LinkedListSet is the sorted linked-list set of Algorithm 2.
	LinkedListSet = pstruct.LinkedListSet
	// HashMap is the resizable chained hash map of §6.2.
	HashMap = pstruct.HashMap
	// HashMapFixed is the statically-dimensioned map of Figure 5.
	HashMapFixed = pstruct.HashMapFixed
	// RBTree is a persistent red-black tree.
	RBTree = pstruct.RBTree
	// ByteMap maps byte-string keys to byte-string values.
	ByteMap = pstruct.ByteMap
	// Queue is a persistent FIFO queue.
	Queue = pstruct.Queue
)

// Structure constructors and attachers.
var (
	NewLinkedListSet    = pstruct.NewLinkedListSet
	AttachLinkedListSet = pstruct.AttachLinkedListSet
	NewHashMap          = pstruct.NewHashMap
	AttachHashMap       = pstruct.AttachHashMap
	NewHashMapFixed     = pstruct.NewHashMapFixed
	AttachHashMapFixed  = pstruct.AttachHashMapFixed
	NewRBTree           = pstruct.NewRBTree
	AttachRBTree        = pstruct.AttachRBTree
	NewByteMap          = pstruct.NewByteMap
	AttachByteMap       = pstruct.AttachByteMap
	NewQueue            = pstruct.NewQueue
	AttachQueue         = pstruct.AttachQueue
)

// RomulusDB: the durable key-value store of §6.4.
type (
	// DB is a RomulusDB instance with a LevelDB-style interface.
	DB = kvstore.DB
	// DBOptions configure OpenDB.
	DBOptions = kvstore.Options
	// DBBatch is an atomic, durable write batch.
	DBBatch = kvstore.Batch
)

// ErrDBNotFound reports a missing key in a DB.
var ErrDBNotFound = kvstore.ErrNotFound

// OpenDB creates or reopens a RomulusDB store.
func OpenDB(opts DBOptions) (*DB, error) {
	return kvstore.Open(opts)
}
