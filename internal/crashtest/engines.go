package crashtest

import (
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/kvstore"
	"repro/internal/pmem"
	"repro/internal/pstruct"
	"repro/internal/ptm"
	"repro/internal/redolog"
	"repro/internal/undolog"
)

// Per-engine sizing, deliberately small: tight regions make crashes land in
// interesting places (mid-resize, mid-replication) and keep rounds fast.
const (
	crashRegion = 1 << 17
	undoLogSize = 1 << 16
	redoSegSize = 1 << 15
	redoSegs    = 4
)

// op is one key-value operation of a workload transaction.
type op struct {
	del  bool
	k, v uint64
}

// store is what a round drives and validates: a persistent uint64→uint64
// map plus the device underneath it.
type store interface {
	dev() *pmem.Device
	// setAudit attaches a durability auditor to the underlying engine (nil
	// removes it). Called only at quiescent points.
	setAudit(a ptm.Auditor)
	// update applies ops as ONE durable transaction.
	update(ops []op) error
	get(k uint64) (uint64, bool, error)
	size() (int, error)
	// probe reads the raw 8-byte word at user heap offset p through a read
	// transaction; the media-fault campaign uses it to exercise the load
	// path at a controlled address without following any pointers.
	probe(p uint64) (uint64, error)
	// probeUpdate runs an update transaction whose only work is loading p,
	// exercising the update path's refusal to commit over a media fault.
	probeUpdate(p uint64) error
	// dataOffsets returns the device offsets of user heap address 0 for
	// every copy the engine's transactions may read.
	dataOffsets() []int
	// check validates engine invariants after recovery (heap, twin copies).
	check() error
	// Close shuts the engine down (the final durability claim the auditor
	// verifies).
	Close() error
}

// target is a crash-test subject: a way to build a fresh store, reopen one
// from a crash image, and inspect images for pending recovery work.
type target struct {
	name string
	// concurrent reports whether multiple goroutines may call update
	// simultaneously. The redo-log STM commits from the calling goroutine
	// with only word-stripe locking, which the simulated device's
	// single-mutator data path does not support, so it runs single-threaded.
	concurrent bool
	fresh      func() (store, error)
	// reopen attaches to a crash image. The auditor (nil when auditing is
	// off) is handed to the engine's Open so recovery runs fully audited.
	reopen func(dev *pmem.Device, aud ptm.Auditor) (store, error)
	// pending reports whether reopening this image performs real recovery
	// work (in-flight transaction state, non-empty logs).
	pending func(img []byte) bool
	// rotable returns the byte ranges of a quiescent image where at-rest
	// bit rot is DETECTABLE and the fault campaign may inject it. Nil means
	// the whole image (the twin-copy engines: header by checksum, payload
	// by twin comparison). The single-copy log engines confine rot to the
	// header and log — rot in their lone data payload has no redundancy to
	// check against and would be served, which is a documented limitation
	// of those designs, not a harness bug to provoke.
	rotable func(imgLen int) [][2]int
}

// targetNames lists the engine subjects in campaign order.
func targetNames() []string {
	names := make([]string, len(targets))
	for i, t := range targets {
		names[i] = t.name
	}
	return names
}

// targetNamed returns the subject the driver selected by name.
func targetNamed(name string) target {
	for _, t := range targets {
		if t.name == name {
			return t
		}
	}
	panic("crashtest: no target " + name)
}

var targets = []target{
	coreTarget("rom"),
	coreTarget("romlog"),
	coreTarget("romlr"),
	{
		name:       "undolog",
		concurrent: true, // global writer lock serializes mutators
		fresh: func() (store, error) {
			e, err := undolog.New(crashRegion, undolog.Config{LogSize: undoLogSize})
			if err != nil {
				return nil, err
			}
			return newMapStore(e, true)
		},
		reopen: func(dev *pmem.Device, aud ptm.Auditor) (store, error) {
			e, err := undolog.Open(dev, undolog.Config{LogSize: undoLogSize, Audit: aud})
			if err != nil {
				return nil, err
			}
			return newMapStore(e, false)
		},
		pending: undolog.RecoveryPending,
		rotable: func(imgLen int) [][2]int {
			// Header (first 256 bytes) plus the undo log at the tail; the
			// single data copy in between is uncheckable.
			return [][2]int{{0, 256}, {imgLen - undoLogSize, imgLen}}
		},
	},
	{
		name:       "redolog",
		concurrent: false,
		fresh: func() (store, error) {
			e, err := redolog.New(crashRegion, redolog.Config{SegmentSize: redoSegSize, Segments: redoSegs})
			if err != nil {
				return nil, err
			}
			return newMapStore(e, true)
		},
		reopen: func(dev *pmem.Device, aud ptm.Auditor) (store, error) {
			e, err := redolog.Open(dev, redolog.Config{SegmentSize: redoSegSize, Segments: redoSegs, Audit: aud})
			if err != nil {
				return nil, err
			}
			return newMapStore(e, false)
		},
		pending: func(img []byte) bool {
			return redolog.RecoveryPending(img, redolog.Config{SegmentSize: redoSegSize, Segments: redoSegs})
		},
		rotable: func(imgLen int) [][2]int {
			// Header plus the redo-log segments at the tail; the single
			// data copy in between is uncheckable.
			return [][2]int{{0, 256}, {imgLen - redoSegs*redoSegSize, imgLen}}
		},
	},
	{
		name:       "kvstore",
		concurrent: true,
		fresh: func() (store, error) {
			db, err := kvstore.Open(kvstore.Options{RegionSize: crashRegion, Variant: core.RomLog})
			if err != nil {
				return nil, err
			}
			return &kvStore{db: db}, nil
		},
		reopen: func(dev *pmem.Device, aud ptm.Auditor) (store, error) {
			e, err := core.Open(dev, core.Config{Variant: core.RomLog, Audit: aud})
			if err != nil {
				return nil, err
			}
			return &kvStore{db: kvstore.Attach(e)}, nil
		},
		pending: core.RecoveryPending,
	},
}

func coreTarget(name string) target {
	cfg := coreConfigs[name]
	return target{
		name:       name,
		concurrent: true, // flat combining: one combiner mutates at a time
		fresh: func() (store, error) {
			e, err := core.New(crashRegion, cfg)
			if err != nil {
				return nil, err
			}
			return newMapStore(e, true)
		},
		reopen: func(dev *pmem.Device, aud ptm.Auditor) (store, error) {
			c := cfg
			c.Audit = aud
			e, err := core.Open(dev, c)
			if err != nil {
				return nil, err
			}
			return newMapStore(e, false)
		},
		pending: core.RecoveryPending,
	}
}

// checkCore validates a recovered core engine: a sound heap and twin copies
// that agree.
func checkCore(e *core.Engine) error {
	if err := e.CheckHeap(); err != nil {
		return fmt.Errorf("heap after recovery: %w", err)
	}
	if off := e.Verify(); off >= 0 {
		return fmt.Errorf("twin copies diverge at offset %d", off)
	}
	return nil
}

// coreConfigs configures the core subjects, one per code path: rom is the
// paper's Algorithm 1, which replicates the whole watermark prefix; romlog
// and romlr copy back only the round's stored lines.
var coreConfigs = map[string]core.Config{
	"rom":    {Variant: core.Rom, FullReplicate: true},
	"romlog": {Variant: core.RomLog},
	"romlr":  {Variant: core.RomLR},
}

// mapEngine is the slice of ptm.PTM the harness needs; all three engine
// packages satisfy it.
type mapEngine interface {
	Update(func(ptm.Tx) error) error
	Read(func(ptm.Tx) error) error
	Device() *pmem.Device
	DataOffsets() []int
	CheckHeap() error
	SetAuditor(ptm.Auditor)
	Close() error
}

// probeLoad and probeStoreFree implement the media-fault probes over any
// ptm engine: a transaction whose only persistent access is one Load64 at a
// controlled offset, so a marked line is exercised without the engine
// following any (corruptible) pointers through it.
func probeLoad(e interface {
	Read(func(ptm.Tx) error) error
}, p uint64) (uint64, error) {
	var v uint64
	err := e.Read(func(tx ptm.Tx) error {
		v = tx.Load64(ptm.Ptr(p))
		return nil
	})
	return v, err
}

func probeUpdateLoad(e interface {
	Update(func(ptm.Tx) error) error
}, p uint64) error {
	return e.Update(func(tx ptm.Tx) error {
		_ = tx.Load64(ptm.Ptr(p))
		return nil
	})
}

// mapStore drives a pstruct.HashMap at root 0 on any engine.
type mapStore struct {
	e mapEngine
	m *pstruct.HashMap
}

// newMapStore creates (fresh) or attaches (reopen) the root hash map.
// Creation commits one transaction, so every image a round captures already
// contains the map: reopen costs exactly the engine's own recovery work.
func newMapStore(e mapEngine, create bool) (store, error) {
	s := &mapStore{e: e}
	if !create {
		s.m = pstruct.AttachHashMap(0)
		return s, nil
	}
	err := e.Update(func(tx ptm.Tx) error {
		m, err := pstruct.NewHashMap(tx, 0)
		s.m = m
		return err
	})
	if err != nil {
		return nil, err
	}
	return s, nil
}

func (s *mapStore) dev() *pmem.Device { return s.e.Device() }

func (s *mapStore) dataOffsets() []int { return s.e.DataOffsets() }

func (s *mapStore) probe(p uint64) (uint64, error) { return probeLoad(s.e, p) }

func (s *mapStore) probeUpdate(p uint64) error { return probeUpdateLoad(s.e, p) }

func (s *mapStore) setAudit(a ptm.Auditor) { s.e.SetAuditor(a) }

func (s *mapStore) Close() error { return s.e.Close() }

func (s *mapStore) update(ops []op) error {
	return s.e.Update(func(tx ptm.Tx) error {
		for _, o := range ops {
			var err error
			if o.del {
				_, err = s.m.Remove(tx, o.k)
			} else {
				_, err = s.m.Put(tx, o.k, o.v)
			}
			if err != nil {
				return err
			}
		}
		return nil
	})
}

func (s *mapStore) get(k uint64) (uint64, bool, error) {
	var v uint64
	var found bool
	err := s.e.Read(func(tx ptm.Tx) error {
		val, err := s.m.Get(tx, k)
		if errors.Is(err, pstruct.ErrNotFound) {
			return nil
		}
		if err != nil {
			return err
		}
		v, found = val, true
		return nil
	})
	return v, found, err
}

func (s *mapStore) size() (int, error) {
	var n int
	err := s.e.Read(func(tx ptm.Tx) error {
		n = s.m.Len(tx)
		return nil
	})
	return n, err
}

func (s *mapStore) check() error {
	if e, ok := s.e.(*core.Engine); ok {
		return checkCore(e)
	}
	if err := s.e.CheckHeap(); err != nil {
		return fmt.Errorf("heap after recovery: %w", err)
	}
	return nil
}

// kvStore drives RomulusDB through its public byte-oriented interface:
// single ops map to Put/Delete, multi-op transactions to a write batch.
type kvStore struct {
	db *kvstore.DB
}

func kvKey(k uint64) []byte {
	b := make([]byte, 8)
	for i := 0; i < 8; i++ {
		b[i] = byte(k >> (8 * i))
	}
	return b
}

func (s *kvStore) dev() *pmem.Device { return s.db.Engine().Device() }

func (s *kvStore) dataOffsets() []int { return s.db.Engine().DataOffsets() }

func (s *kvStore) probe(p uint64) (uint64, error) { return probeLoad(s.db.Engine(), p) }

func (s *kvStore) probeUpdate(p uint64) error { return probeUpdateLoad(s.db.Engine(), p) }

func (s *kvStore) setAudit(a ptm.Auditor) { s.db.Engine().SetAuditor(a) }

func (s *kvStore) Close() error { return s.db.Close() }

func (s *kvStore) update(ops []op) error {
	if len(ops) == 1 {
		if ops[0].del {
			return s.db.Delete(kvKey(ops[0].k))
		}
		return s.db.Put(kvKey(ops[0].k), kvKey(ops[0].v))
	}
	var b kvstore.Batch
	for _, o := range ops {
		if o.del {
			b.Delete(kvKey(o.k))
		} else {
			b.Put(kvKey(o.k), kvKey(o.v))
		}
	}
	return s.db.Write(&b)
}

func (s *kvStore) get(k uint64) (uint64, bool, error) {
	val, err := s.db.Get(kvKey(k))
	if errors.Is(err, kvstore.ErrNotFound) {
		return 0, false, nil
	}
	if err != nil {
		return 0, false, err
	}
	if len(val) != 8 {
		return 0, false, fmt.Errorf("kvstore: value for key %d has %d bytes, want 8", k, len(val))
	}
	var v uint64
	for i := 7; i >= 0; i-- {
		v = v<<8 | uint64(val[i])
	}
	return v, true, nil
}

func (s *kvStore) size() (int, error) { return s.db.Len(), nil }

func (s *kvStore) check() error { return checkCore(s.db.Engine()) }
