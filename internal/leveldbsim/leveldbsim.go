// Package leveldbsim is a compact LevelDB-style log-structured key-value
// store, built as the disk-based comparator for the RomulusDB evaluation
// (Figure 8 of the Romulus paper). It reproduces the durability semantics
// that matter for that comparison:
//
//   - updates append to a write-ahead log with BUFFERED durability: the
//     data reaches the OS immediately but fdatasync runs only about once
//     per Options.syncEvery bytes (~1000 kB, the paper's measured LevelDB
//     behaviour), so a crash can lose recently acknowledged writes;
//   - WriteOptions.sync (the Sync field here) forces an fdatasync per
//     operation, the mode the paper's fillsync benchmark measures;
//   - the memtable flushes to sorted immutable runs (SSTs); iterators
//     merge the memtable and every run in key order, forward or reverse
//     (readseq / readreverse);
//   - runs are compacted by merging when they accumulate.
//
// The implementation is deliberately real: actual files, actual fsync,
// actual recovery by WAL replay — so the fill-100k and fillsync shapes come
// from genuine I/O, not constants.
package leveldbsim

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// Options configure Open.
type Options struct {
	// memtableBytes triggers a flush to an SST (default 4 MiB).
	memtableBytes int
	// syncEvery is the buffered-durability window: an fdatasync is issued
	// once this many bytes have been appended to the WAL since the last
	// sync (default 1000 KiB, matching the paper's observation).
	syncEvery int
	// compactAt merges all runs into one when their count reaches this
	// value (default 8).
	compactAt int
}

const (
	defaultMemtableBytes = 4 << 20
	defaultSyncEvery     = 1000 << 10
	defaultCompactAt     = 8
)

// WriteOptions mirror LevelDB's per-operation durability switch.
type WriteOptions struct {
	// Sync forces an fdatasync before the operation returns.
	Sync bool
}

// ioStats counts I/O events relevant to the paper's analysis.
type ioStats struct {
	fdatasyncs  uint64 // fsync/fdatasync calls on the WAL or SSTs
	flushes     uint64 // memtable flushes
	compactions uint64
}

// DB is a leveldbsim store rooted in a directory.
type DB struct {
	dir  string
	opts Options

	mu       sync.RWMutex
	mem      map[string]*string // nil value = tombstone
	memBytes int
	wal      *os.File
	walBuf   *bufio.Writer
	unsynced int
	ssts     []*sstReader // oldest first
	zombies  []*sstReader // compacted-away runs kept open for live iterators
	nextSST  int
	stats    ioStats
}

// Open creates or reopens a store in dir, replaying the WAL.
func Open(dir string, opts Options) (*DB, error) {
	if opts.memtableBytes == 0 {
		opts.memtableBytes = defaultMemtableBytes
	}
	if opts.syncEvery == 0 {
		opts.syncEvery = defaultSyncEvery
	}
	if opts.compactAt == 0 {
		opts.compactAt = defaultCompactAt
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("leveldbsim: %w", err)
	}
	db := &DB{dir: dir, opts: opts, mem: map[string]*string{}}
	if err := db.loadSSTs(); err != nil {
		return nil, err
	}
	if err := db.replayWAL(); err != nil {
		return nil, err
	}
	wal, err := os.OpenFile(db.walPath(), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("leveldbsim: %w", err)
	}
	db.wal = wal
	db.walBuf = bufio.NewWriterSize(wal, 64<<10)
	return db, nil
}

func (db *DB) walPath() string { return filepath.Join(db.dir, "wal.log") }

func (db *DB) sstPath(n int) string {
	return filepath.Join(db.dir, fmt.Sprintf("%06d.sst", n))
}

func (db *DB) loadSSTs() error {
	entries, err := os.ReadDir(db.dir)
	if err != nil {
		return fmt.Errorf("leveldbsim: %w", err)
	}
	var nums []int
	for _, e := range entries {
		name := e.Name()
		if strings.HasSuffix(name, ".sst") {
			var n int
			if _, err := fmt.Sscanf(name, "%06d.sst", &n); err == nil {
				nums = append(nums, n)
			}
		}
	}
	sort.Ints(nums)
	for _, n := range nums {
		r, err := openSST(db.sstPath(n))
		if err != nil {
			return err
		}
		db.ssts = append(db.ssts, r)
		if n >= db.nextSST {
			db.nextSST = n + 1
		}
	}
	return nil
}

// replayWAL loads surviving WAL records into the memtable, tolerating a
// torn tail (records after the first corruption are discarded, like
// LevelDB's log reader).
func (db *DB) replayWAL() error {
	f, err := os.Open(db.walPath())
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("leveldbsim: %w", err)
	}
	defer f.Close()
	r := bufio.NewReader(f)
	var hdr [8]byte
	for {
		if _, err := readFull(r, hdr[:]); err != nil {
			break
		}
		klen := binary.LittleEndian.Uint32(hdr[0:4])
		vlen := binary.LittleEndian.Uint32(hdr[4:8])
		if klen > 1<<20 || (vlen != tombstoneLen && vlen > 1<<28) {
			break // torn/corrupt tail
		}
		key := make([]byte, klen)
		if _, err := readFull(r, key); err != nil {
			break
		}
		if vlen == tombstoneLen {
			db.memInsert(string(key), nil)
			continue
		}
		val := make([]byte, vlen)
		if _, err := readFull(r, val); err != nil {
			break
		}
		s := string(val)
		db.memInsert(string(key), &s)
	}
	return nil
}

func readFull(r *bufio.Reader, b []byte) (int, error) {
	n := 0
	for n < len(b) {
		m, err := r.Read(b[n:])
		n += m
		if err != nil {
			return n, err
		}
	}
	return n, nil
}

const tombstoneLen = 0xFFFFFFFF

func (db *DB) memInsert(key string, val *string) {
	if old, ok := db.mem[key]; ok {
		if old != nil {
			db.memBytes -= len(*old)
		}
		db.memBytes -= len(key)
	}
	db.mem[key] = val
	db.memBytes += len(key)
	if val != nil {
		db.memBytes += len(*val)
	}
}

// Put stores a key/value pair.
func (db *DB) Put(key, val []byte, wo WriteOptions) error {
	return db.apply(key, val, false, wo)
}

func (db *DB) apply(key, val []byte, del bool, wo WriteOptions) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if err := db.appendWAL(key, val, del); err != nil {
		return err
	}
	if err := db.maybeSync(wo.Sync); err != nil {
		return err
	}
	if del {
		db.memInsert(string(key), nil)
	} else {
		s := string(val)
		db.memInsert(string(key), &s)
	}
	return db.maybeFlush()
}

func (db *DB) appendWAL(key, val []byte, del bool) error {
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(key)))
	if del {
		binary.LittleEndian.PutUint32(hdr[4:8], tombstoneLen)
	} else {
		binary.LittleEndian.PutUint32(hdr[4:8], uint32(len(val)))
	}
	if _, err := db.walBuf.Write(hdr[:]); err != nil {
		return err
	}
	if _, err := db.walBuf.Write(key); err != nil {
		return err
	}
	if !del {
		if _, err := db.walBuf.Write(val); err != nil {
			return err
		}
	}
	db.unsynced += 8 + len(key) + len(val)
	return nil
}

// maybeSync implements the two durability modes: per-operation fdatasync
// (sync writes) or one fdatasync per syncEvery bytes (buffered).
func (db *DB) maybeSync(force bool) error {
	if !force && db.unsynced < db.opts.syncEvery {
		return nil
	}
	if err := db.walBuf.Flush(); err != nil {
		return err
	}
	if err := db.wal.Sync(); err != nil {
		return err
	}
	db.stats.fdatasyncs++
	db.unsynced = 0
	return nil
}

// maybeFlush writes the memtable to a new SST when it outgrows its budget.
func (db *DB) maybeFlush() error {
	if db.memBytes < db.opts.memtableBytes {
		return nil
	}
	return db.flushLocked()
}

func (db *DB) flushLocked() error {
	if len(db.mem) == 0 {
		return nil
	}
	n := db.nextSST
	db.nextSST++
	path := db.sstPath(n)
	if err := writeSST(path, db.mem); err != nil {
		return err
	}
	db.stats.fdatasyncs++ // SST is synced on write
	r, err := openSST(path)
	if err != nil {
		return err
	}
	db.ssts = append(db.ssts, r)
	db.mem = map[string]*string{}
	db.memBytes = 0
	// The WAL is now redundant for flushed data.
	if err := db.walBuf.Flush(); err != nil {
		return err
	}
	if err := db.wal.Truncate(0); err != nil {
		return err
	}
	if _, err := db.wal.Seek(0, 0); err != nil {
		return err
	}
	db.unsynced = 0
	db.stats.flushes++
	if len(db.ssts) >= db.opts.compactAt {
		return db.compactLocked()
	}
	return nil
}

// compactLocked merges every run into one, dropping shadowed versions and
// tombstones.
func (db *DB) compactLocked() error {
	merged := map[string]*string{}
	for _, r := range db.ssts { // oldest first: newer overwrite older
		if err := r.loadInto(merged); err != nil {
			return err
		}
	}
	for k, v := range merged {
		if v == nil {
			delete(merged, k) // full merge: tombstones can drop
		}
	}
	n := db.nextSST
	db.nextSST++
	path := db.sstPath(n)
	if err := writeSST(path, merged); err != nil {
		return err
	}
	db.stats.fdatasyncs++
	r, err := openSST(path)
	if err != nil {
		return err
	}
	// Old runs may still be referenced by live iterators: unlink the files
	// (POSIX keeps open descriptors readable) and close them at shutdown.
	for _, old := range db.ssts {
		os.Remove(old.path)
	}
	db.zombies = append(db.zombies, db.ssts...)
	db.ssts = []*sstReader{r}
	db.stats.compactions++
	return nil
}

// Close flushes buffers and closes files. Buffered (unsynced) data is
// written out, like LevelDB's clean shutdown.
func (db *DB) Close() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if err := db.walBuf.Flush(); err != nil {
		return err
	}
	if err := db.wal.Sync(); err != nil {
		return err
	}
	db.stats.fdatasyncs++
	for _, r := range db.ssts {
		r.close()
	}
	for _, r := range db.zombies {
		r.close()
	}
	return db.wal.Close()
}
