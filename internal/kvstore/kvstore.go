// Package kvstore implements RomulusDB (§6.4 of the paper): a persistent
// key-value store exposing a LevelDB-style interface — Put, Get, Delete,
// atomic write batches, and full iteration — built by wrapping a persistent
// hash map (pstruct.ByteMap) in a RomulusLog PTM.
//
// Unlike LevelDB, every update is a real durable transaction: when Put
// returns, the pair is persistent, with no WriteOptions.sync flag needed
// and no buffered-durability window in which completed operations can be
// lost. Batches are durable and atomic as a unit. Read operations run as
// Romulus read-only transactions and therefore scale with reader threads.
//
// # Batch semantics
//
// A Batch applies its operations in queue order within one transaction, so
// when the same key is both Put and Deleted in a single batch the LAST
// queued operation wins: Put(k,v) then Delete(k) leaves k absent, Delete(k)
// then Put(k,v) leaves k=v, and repeated Puts leave the final value. This
// guarantee is load-bearing above the single store: cross-shard batches
// (internal/shard) split a batch by key routing and apply each shard's
// slice in the original queue order, so they inherit last-op-wins per key —
// a key always routes to one shard, keeping its operations totally ordered.
package kvstore

import (
	"errors"
	"fmt"
	"os"

	"repro/internal/core"
	"repro/internal/pmem"
	"repro/internal/pstruct"
	"repro/internal/ptm"
)

// ErrNotFound is returned by Get when the key is absent.
var ErrNotFound = errors.New("kvstore: key not found")

// rootIdx is the root-pointer slot holding the map object.
const rootIdx = 0

// Options configure Open.
type Options struct {
	// RegionSize is the persistent heap size per twin copy (default 64 MiB).
	RegionSize int
	// Variant selects the Romulus engine (default RomLog, as in the paper;
	// RomLR gives wait-free readers).
	Variant core.Variant
	// Model is the persistence model (default DRAM-like NVDIMM).
	Model pmem.Model
	// Path, when non-empty, backs the store with an image file: Open loads
	// it if present, and Close writes it back. An empty path keeps the
	// store in memory only (still crash-consistent within the process).
	Path string
	// InitialBuckets presizes the hash map (0 = default).
	InitialBuckets int
}

const defaultRegionSize = 64 << 20

// DB is a RomulusDB instance.
type DB struct {
	eng  *core.Engine
	m    *pstruct.ByteMap
	path string
}

// Open creates or reopens a store; see Init for when it runs a transaction.
func Open(opts Options) (*DB, error) {
	if opts.RegionSize == 0 {
		opts.RegionSize = defaultRegionSize
	}
	cfg := core.Config{Variant: opts.Variant, Model: opts.Model} // zero Variant = RomLog
	var eng *core.Engine
	var err error
	if _, statErr := os.Stat(opts.Path); opts.Path != "" && statErr == nil {
		dev, loadErr := pmem.LoadFile(opts.Path, opts.Model)
		if loadErr != nil {
			return nil, fmt.Errorf("kvstore: %w", loadErr)
		}
		eng, err = core.Open(dev, cfg)
	} else {
		eng, err = core.New(opts.RegionSize, cfg)
	}
	if err != nil {
		return nil, fmt.Errorf("kvstore: %w", err)
	}
	db, _, err := Init(eng, opts.InitialBuckets)
	if err != nil {
		return nil, fmt.Errorf("kvstore: %w", err)
	}
	db.path = opts.Path
	return db, nil
}

// Init wraps an opened engine, first creating the map (presized to buckets;
// 0 = default) in one update transaction if its root slot is empty. An
// engine whose map exists is attached after one read transaction, so a
// reopen runs no update. created reports whether the map was made here.
func Init(eng *core.Engine, buckets int) (db *DB, created bool, err error) {
	if err := eng.Read(func(tx ptm.Tx) error {
		created = tx.Root(rootIdx).IsNil()
		return nil
	}); err != nil {
		return nil, false, err
	}
	if created {
		if err := eng.Update(func(tx ptm.Tx) error {
			_, err := pstruct.NewByteMap(tx, rootIdx, buckets)
			return err
		}); err != nil {
			return nil, false, fmt.Errorf("initializing map: %w", err)
		}
	}
	return Attach(eng), created, nil
}

// Attach wraps an already-opened engine whose root slot holds a map from a
// previous run, without starting any transaction. Crash-recovery harnesses
// use it so reopening a crash image costs exactly the engine's own recovery
// work; general callers should use Open or Init, which also create the map.
func Attach(eng *core.Engine) *DB {
	return &DB{eng: eng, m: pstruct.AttachByteMap(rootIdx)}
}

// Engine exposes the underlying PTM engine (statistics, crash testing).
func (db *DB) Engine() *core.Engine { return db.eng }

// Put durably stores the key/value pair.
func (db *DB) Put(key, val []byte) error {
	return db.eng.Update(func(tx ptm.Tx) error {
		_, err := db.m.Put(tx, key, val)
		return err
	})
}

// Get returns the value for key, or ErrNotFound. Media-level failures are
// never folded into ErrNotFound: a read that tripped a device fault returns
// an error wrapping pmem.ErrMediaFault so callers can distinguish "absent"
// from "unreadable".
func (db *DB) Get(key []byte) ([]byte, error) {
	var out []byte
	err := db.eng.Read(func(tx ptm.Tx) error {
		v, err := db.m.Get(tx, key, nil)
		if err != nil {
			return err
		}
		out = v
		return nil
	})
	if errors.Is(err, pstruct.ErrNotFound) {
		return nil, ErrNotFound
	}
	return out, err
}

// Delete durably removes key (a no-op if absent).
func (db *DB) Delete(key []byte) error {
	return db.eng.Update(func(tx ptm.Tx) error {
		_, err := db.m.Delete(tx, key)
		return err
	})
}

// Len returns the number of live pairs.
func (db *DB) Len() int {
	var n int
	db.eng.Read(func(tx ptm.Tx) error {
		n = db.m.Len(tx)
		return nil
	})
	return n
}

// Range iterates all pairs within a single read-only transaction (a
// consistent snapshot), forward or reverse, until fn returns false. This
// is what the readseq/readreverse benchmarks use.
func (db *DB) Range(reverse bool, fn func(key, val []byte) bool) error {
	return db.eng.Read(func(tx ptm.Tx) error {
		return db.m.Range(tx, reverse, fn)
	})
}

// RangeTx iterates all pairs inside an existing transaction on this
// store's engine, so a caller can combine the scan with point reads (or
// writes) in the same atomic snapshot — the shard migration copier
// snapshots a keyspace slice this way. The callback's key/val slices are
// only valid during the call; copy what outlives the transaction. A node
// that fails its lengths check stops the scan with its error.
func (db *DB) RangeTx(tx ptm.Tx, reverse bool, fn func(key, val []byte) bool) error {
	return db.m.Range(tx, reverse, fn)
}

// Stats reports store-level counters and capacity.
type Stats struct {
	// Pairs is the number of live key-value pairs.
	Pairs int
	// UsedBytes is the persistent-heap high-water mark (what recovery
	// would copy).
	UsedBytes int
	// RegionBytes is the capacity of each twin copy.
	RegionBytes int
	// UpdateTxs and ReadTxs count transactions since open.
	UpdateTxs uint64
	ReadTxs   uint64
}

// Stats returns a snapshot of store statistics.
func (db *DB) Stats() Stats {
	ts := db.eng.Stats()
	return Stats{
		Pairs:       db.Len(),
		UsedBytes:   db.eng.Watermark(),
		RegionBytes: db.eng.RegionSize(),
		UpdateTxs:   ts.UpdateTxs,
		ReadTxs:     ts.ReadTxs,
	}
}

// Close writes the image back to Path (if configured). The store must be
// quiescent.
func (db *DB) Close() error {
	if db.path != "" {
		if err := db.eng.Device().SaveFile(db.path); err != nil {
			return err
		}
	}
	return db.eng.Close()
}

// Batch collects operations for atomic, durable application via Write —
// genuine transactional semantics, strictly stronger than LevelDB's
// write batches.
type Batch struct {
	ops []batchOp
}

type batchOp struct {
	del      bool
	key, val []byte
}

// Put queues a durable insertion/replacement.
func (b *Batch) Put(key, val []byte) {
	b.ops = append(b.ops, batchOp{key: append([]byte(nil), key...), val: append([]byte(nil), val...)})
}

// Delete queues a removal.
func (b *Batch) Delete(key []byte) {
	b.ops = append(b.ops, batchOp{del: true, key: append([]byte(nil), key...)})
}

// Len returns the number of queued operations.
func (b *Batch) Len() int { return len(b.ops) }

// Reset clears the batch for reuse.
func (b *Batch) Reset() { b.ops = b.ops[:0] }

// Each calls fn for every queued operation in queue order — the order Apply
// uses, so iteration observes exactly the last-op-wins sequence. del is true
// for Delete entries (val is nil); the key and value slices are the batch's
// own copies and must not be mutated.
func (b *Batch) Each(fn func(del bool, key, val []byte)) {
	for _, op := range b.ops {
		fn(op.del, op.key, op.val)
	}
}

// Apply applies the batch's operations, in queue order, inside an existing
// update transaction. It is the building block under Write and under the
// sharded store's cross-shard commits, which need a batch's effects plus
// their own bookkeeping in ONE durable transaction.
func (db *DB) Apply(tx ptm.Tx, b *Batch) error {
	for _, op := range b.ops {
		if op.del {
			if _, err := db.m.Delete(tx, op.key); err != nil {
				return err
			}
		} else if _, err := db.m.Put(tx, op.key, op.val); err != nil {
			return err
		}
	}
	return nil
}

// GetTx reads key inside an existing transaction (read-only or update),
// returning ErrNotFound when absent. Together with PutTx and DeleteTx it is
// the building block for callers that compose several key operations — and
// their own bookkeeping — into ONE durable transaction, such as the network
// layer's group-committed batches and its read-modify-write commands.
func (db *DB) GetTx(tx ptm.Tx, key []byte) ([]byte, error) {
	v, err := db.m.Get(tx, key, nil)
	if errors.Is(err, pstruct.ErrNotFound) {
		return nil, ErrNotFound
	}
	return v, err
}

// PutTx stores the pair inside an existing update transaction.
func (db *DB) PutTx(tx ptm.Tx, key, val []byte) error {
	_, err := db.m.Put(tx, key, val)
	return err
}

// DeleteTx removes key inside an existing update transaction (a no-op if
// absent).
func (db *DB) DeleteTx(tx ptm.Tx, key []byte) error {
	_, err := db.m.Delete(tx, key)
	return err
}

// Write applies the batch atomically in one durable transaction.
func (db *DB) Write(b *Batch) error {
	return db.eng.Update(func(tx ptm.Tx) error {
		return db.Apply(tx, b)
	})
}
