package bench

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"repro/internal/kvstore"
	"repro/internal/leveldbsim"
	"repro/internal/obs"
)

// DBWorkloads lists the Figure 8 benchmarks in presentation order. They
// follow LevelDB's db_bench definitions (§6.4): 16-byte keys, 100-byte
// values, one million operations per thread in the paper (scaled by the
// caller here); fillsync and fill-100k use 1,000 operations, the latter
// with 100 kB values.
var DBWorkloads = []string{"fillseq", "fillsync", "fillrandom", "overwrite", "readseq", "readreverse", "fill100k"}

// DBResult is one Figure 8 data point.
type DBResult struct {
	Workload    string
	DB          string // "romdb" or "leveldb"
	Threads     int
	MicrosPerOp float64 // elapsed per per-thread operation, db_bench style
	Ops         int
	Fdatasyncs  uint64 // leveldbsim only
}

// dbIface abstracts the two stores for the workload driver.
type dbIface interface {
	put(th int, key, val []byte, sync bool) error
	rangeAll(reverse bool, fn func(k, v []byte) bool) error
	close() error
	fdatasyncs() uint64
}

type romDB struct {
	db       *kvstore.DB
	sessions []*kvstore.Session
}

func (r *romDB) put(th int, key, val []byte, sync bool) error {
	return r.sessions[th].Put(key, val) // always durable; sync is implied
}

func (r *romDB) rangeAll(reverse bool, fn func(k, v []byte) bool) error {
	return r.db.Range(reverse, fn)
}

func (r *romDB) close() error {
	for _, s := range r.sessions {
		s.Close()
	}
	return r.db.Close()
}

func (r *romDB) fdatasyncs() uint64 { return 0 }

type lvlDB struct {
	db *leveldbsim.DB
}

func (l *lvlDB) put(th int, key, val []byte, sync bool) error {
	return l.db.Put(key, val, leveldbsim.WriteOptions{Sync: sync})
}

func (l *lvlDB) rangeAll(reverse bool, fn func(k, v []byte) bool) error {
	it := l.db.NewIterator(reverse)
	for it.Next() {
		if !fn(it.Key(), it.Value()) {
			break
		}
	}
	return it.Err()
}

func (l *lvlDB) close() error       { return l.db.Close() }
func (l *lvlDB) fdatasyncs() uint64 { return l.db.Stats().Fdatasyncs }

func openBenchDB(kind, dir string, threads, entries, valueSize int, metrics *obs.Registry, trace obs.Sink, onOpen func(*kvstore.DB)) (dbIface, error) {
	switch kind {
	case "romdb":
		region := entries*(220+valueSize+valueSize/2) + (16 << 20)
		db, err := kvstore.Open(kvstore.Options{RegionSize: region, Metrics: metrics, Trace: trace})
		if err != nil {
			return nil, err
		}
		if onOpen != nil {
			onOpen(db)
		}
		r := &romDB{db: db}
		for i := 0; i < threads; i++ {
			s, err := db.NewSession()
			if err != nil {
				return nil, err
			}
			r.sessions = append(r.sessions, s)
		}
		return r, nil
	case "leveldb":
		db, err := leveldbsim.Open(dir, leveldbsim.Options{})
		if err != nil {
			return nil, err
		}
		return &lvlDB{db: db}, nil
	}
	return nil, fmt.Errorf("bench: unknown db kind %q", kind)
}

func dbKey(i int) []byte { return []byte(fmt.Sprintf("%016d", i)) }

// RunDBBench executes one Figure 8 workload. entries is the per-thread
// operation count (the paper uses 1,000,000; 1,000 for fillsync and
// fill-100k). dir hosts leveldbsim files and is ignored for romdb.
func RunDBBench(dbKind, workload, dir string, threads, entries int) (DBResult, error) {
	return RunDBBenchObs(dbKind, workload, dir, threads, entries, nil, nil)
}

// RunDBBenchObs is RunDBBench with observability attached to the romdb
// side: metrics (when non-nil) receives the store's kv_*/pmem_*/ptm_*
// instruments, and trace receives its per-transaction events. Both are
// ignored for leveldb, which has no transactional engine underneath.
// The romulus-db -http endpoint is built on this hook.
func RunDBBenchObs(dbKind, workload, dir string, threads, entries int, metrics *obs.Registry, trace obs.Sink) (DBResult, error) {
	return RunDBBenchHook(dbKind, workload, dir, threads, entries, metrics, trace, nil)
}

// RunDBBenchHook is RunDBBenchObs plus an onOpen callback invoked with the
// live RomulusDB store the moment it opens (nil for leveldb runs). The
// romulus-db -audit flag uses it to chain a durability auditor onto the
// store's device before any benchmark transaction runs; the store is closed
// before RunDBBenchHook returns, so engine-close durability claims are
// checked too.
func RunDBBenchHook(dbKind, workload, dir string, threads, entries int, metrics *obs.Registry, trace obs.Sink, onOpen func(*kvstore.DB)) (DBResult, error) {
	valueSize := 100
	syncEach := false
	ops := entries
	switch workload {
	case "fillsync":
		ops = min(entries, 1000)
		syncEach = true
	case "fill100k":
		ops = min(entries, 1000)
		valueSize = 100 << 10
	}
	totalEntries := ops * threads
	db, err := openBenchDB(dbKind, dir, threads, totalEntries, valueSize, metrics, trace, onOpen)
	if err != nil {
		return DBResult{}, err
	}
	defer db.close()

	val := make([]byte, valueSize)
	rand.New(rand.NewSource(1)).Read(val)
	yield := threads > runtime.NumCPU()

	fillRange := func(th, lo, hi int, random bool, seed int64) error {
		rng := rand.New(rand.NewSource(seed))
		for i := lo; i < hi; i++ {
			var k []byte
			if random {
				k = dbKey(rng.Intn(totalEntries))
			} else {
				k = dbKey(i)
			}
			if err := db.put(th, k, val, syncEach); err != nil {
				return err
			}
			if yield {
				runtime.Gosched()
			}
		}
		return nil
	}

	runThreads := func(fn func(th int) error) error {
		var wg sync.WaitGroup
		errs := make(chan error, threads)
		for th := 0; th < threads; th++ {
			wg.Add(1)
			go func(th int) {
				defer wg.Done()
				if err := fn(th); err != nil {
					errs <- err
				}
			}(th)
		}
		wg.Wait()
		select {
		case err := <-errs:
			return err
		default:
			return nil
		}
	}

	prepopulate := func() error {
		return runThreads(func(th int) error {
			return fillRange(th, th*ops, (th+1)*ops, false, int64(th))
		})
	}

	var start time.Time
	var opsDone int
	switch workload {
	case "fillseq", "fillsync", "fill100k":
		start = time.Now()
		err = runThreads(func(th int) error {
			return fillRange(th, th*ops, (th+1)*ops, false, int64(th))
		})
		opsDone = ops
	case "fillrandom":
		start = time.Now()
		err = runThreads(func(th int) error {
			return fillRange(th, 0, ops, true, int64(th))
		})
		opsDone = ops
	case "overwrite":
		if err := prepopulate(); err != nil {
			return DBResult{}, err
		}
		start = time.Now()
		err = runThreads(func(th int) error {
			return fillRange(th, 0, ops, true, 1000+int64(th))
		})
		opsDone = ops
	case "readseq", "readreverse":
		if err := prepopulate(); err != nil {
			return DBResult{}, err
		}
		reverse := workload == "readreverse"
		start = time.Now()
		err = runThreads(func(th int) error {
			n := 0
			scanErr := db.rangeAll(reverse, func(k, v []byte) bool {
				n++
				return true
			})
			if scanErr == nil && n < totalEntries {
				return fmt.Errorf("bench: %s scanned %d of %d entries", workload, n, totalEntries)
			}
			return scanErr
		})
		opsDone = totalEntries // per thread: one full scan of all entries
	default:
		return DBResult{}, fmt.Errorf("bench: unknown workload %q", workload)
	}
	if err != nil {
		return DBResult{}, err
	}
	elapsed := time.Since(start)
	return DBResult{
		Workload:    workload,
		DB:          dbKind,
		Threads:     threads,
		MicrosPerOp: float64(elapsed.Microseconds()) / float64(opsDone),
		Ops:         opsDone * threads,
		Fdatasyncs:  db.fdatasyncs(),
	}, nil
}
