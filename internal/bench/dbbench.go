package bench

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"repro/internal/kvstore"
	"repro/internal/leveldbsim"
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
	put(key, val []byte, sync bool) error
	rangeAll(reverse bool, fn func(k, v []byte) bool) error
	close() error
	fdatasyncs() uint64
}

type romDB struct {
	db *kvstore.DB
}

func (r *romDB) put(key, val []byte, sync bool) error {
	return r.db.Put(key, val) // always durable; sync is implied
}

func (r *romDB) rangeAll(reverse bool, fn func(k, v []byte) bool) error {
	return r.db.Range(reverse, fn)
}

func (r *romDB) close() error { return r.db.Close() }

func (r *romDB) fdatasyncs() uint64 { return 0 }

type lvlDB struct {
	db *leveldbsim.DB
}

func (l *lvlDB) put(key, val []byte, sync bool) error {
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

func openBenchDB(kind, dir string, entries, valueSize int) (dbIface, error) {
	switch kind {
	case "romdb":
		region := entries*(220+valueSize+valueSize/2) + (16 << 20)
		db, err := kvstore.Open(kvstore.Options{RegionSize: region})
		if err != nil {
			return nil, err
		}
		return &romDB{db: db}, nil
	case "leveldb":
		db, err := leveldbsim.Open(dir, leveldbsim.Options{})
		if err != nil {
			return nil, err
		}
		return &lvlDB{db: db}, nil
	}
	return nil, fmt.Errorf("bench: unknown db kind %q", kind)
}

// Fig8 reproduces Figure 8: one table per db_bench workload (default
// DBWorkloads), one row per store (default romdb and leveldb), one column
// per thread count (default 1, 2, 4), in microseconds per operation. o.Keys
// is the per-thread operation count (default 100,000; the paper's is
// 1,000,000). Every data point runs on a fresh store; leveldb's files live
// in a temporary directory removed on return.
func Fig8(o FigOptions, workloads, dbs []string) (string, error) {
	o.defaults(100_000, []int{1, 2, 4})
	if len(workloads) == 0 {
		workloads = DBWorkloads
	}
	if len(dbs) == 0 {
		dbs = []string{"romdb", "leveldb"}
	}
	scratch, err := os.MkdirTemp("", "romulus-fig8-*")
	if err != nil {
		return "", err
	}
	defer os.RemoveAll(scratch)
	var out strings.Builder
	for _, w := range workloads {
		t := NewTable(append([]string{"db \\ threads"}, intHeaders(o.Threads)...)...)
		for _, db := range dbs {
			row := []any{db}
			for i, th := range o.Threads {
				res, err := RunDBBench(db, w, filepath.Join(scratch, fmt.Sprintf("%s-%s-%d", db, w, i)), th, o.Keys)
				if err != nil {
					return "", err
				}
				row = append(row, res.MicrosPerOp)
			}
			t.Row(row...)
		}
		unit := "µs/op"
		if w == "fill100k" {
			unit = "µs/op (100 kB values)"
		}
		fmt.Fprintf(&out, "Figure 8 — %s (%s, %d ops/thread)\n%s\n", w, unit, o.Keys, t)
	}
	return out.String(), nil
}

func dbKey(i int) []byte { return []byte(fmt.Sprintf("%016d", i)) }

// RunDBBench executes one Figure 8 workload. entries is the per-thread
// operation count (the paper uses 1,000,000; 1,000 for fillsync and
// fill-100k). dir hosts leveldbsim files and is ignored for romdb.
func RunDBBench(dbKind, workload, dir string, threads, entries int) (DBResult, error) {
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
	db, err := openBenchDB(dbKind, dir, totalEntries, valueSize)
	if err != nil {
		return DBResult{}, err
	}
	defer db.close()

	val := make([]byte, valueSize)
	rand.New(rand.NewSource(1)).Read(val)
	yield := threads > runtime.NumCPU()

	fillRange := func(lo, hi int, random bool, seed int64) error {
		rng := rand.New(rand.NewSource(seed))
		for i := lo; i < hi; i++ {
			var k []byte
			if random {
				k = dbKey(rng.Intn(totalEntries))
			} else {
				k = dbKey(i)
			}
			if err := db.put(k, val, syncEach); err != nil {
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
			return fillRange(th*ops, (th+1)*ops, false, int64(th))
		})
	}

	var start time.Time
	var opsDone int
	switch workload {
	case "fillseq", "fillsync", "fill100k":
		start = time.Now()
		err = runThreads(func(th int) error {
			return fillRange(th*ops, (th+1)*ops, false, int64(th))
		})
		opsDone = ops
	case "fillrandom":
		start = time.Now()
		err = runThreads(func(th int) error {
			return fillRange(0, ops, true, int64(th))
		})
		opsDone = ops
	case "overwrite":
		if err := prepopulate(); err != nil {
			return DBResult{}, err
		}
		start = time.Now()
		err = runThreads(func(th int) error {
			return fillRange(0, ops, true, 1000+int64(th))
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
