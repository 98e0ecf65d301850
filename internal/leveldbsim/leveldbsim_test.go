package leveldbsim

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

func openTmp(t testing.TB, opts Options) *DB {
	t.Helper()
	db, err := Open(t.TempDir(), opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

// errNotFound is get's answer for a key no iterator sees.
var errNotFound = errors.New("key not found")

// get looks key up the way Fig 8 reads the store: through an iterator
// merging the memtable and every run.
func get(db *DB, key []byte) ([]byte, error) {
	it := db.NewIterator(false)
	for it.Next() {
		if bytes.Equal(it.Key(), key) {
			return it.Value(), nil
		}
	}
	if err := it.Err(); err != nil {
		return nil, err
	}
	return nil, errNotFound
}

// count returns the number of live keys an iterator sees.
func count(db *DB) (int, error) {
	n := 0
	it := db.NewIterator(false)
	for it.Next() {
		n++
	}
	return n, it.Err()
}

func TestPutGet(t *testing.T) {
	db := openTmp(t, Options{})
	wo := WriteOptions{}
	if err := db.Put([]byte("a"), []byte("1"), wo); err != nil {
		t.Fatal(err)
	}
	v, err := get(db, []byte("a"))
	if err != nil || string(v) != "1" {
		t.Fatalf("Get = %q, %v", v, err)
	}
	if _, err := get(db, []byte("b")); !errors.Is(err, errNotFound) {
		t.Fatalf("missing: %v", err)
	}
}

func TestFlushAndReadThroughSST(t *testing.T) {
	db := openTmp(t, Options{memtableBytes: 1 << 10})
	wo := WriteOptions{}
	for i := 0; i < 200; i++ {
		if err := db.Put([]byte(fmt.Sprintf("key%03d", i)), bytes.Repeat([]byte{byte(i)}, 50), wo); err != nil {
			t.Fatal(err)
		}
	}
	if db.stats.flushes == 0 {
		t.Fatal("memtable never flushed")
	}
	for i := 0; i < 200; i++ {
		v, err := get(db, []byte(fmt.Sprintf("key%03d", i)))
		if err != nil || len(v) != 50 || v[0] != byte(i) {
			t.Fatalf("Get(%d) = %v, %v", i, v, err)
		}
	}
	// Shadowing: overwrite a flushed key; memtable version must win.
	if err := db.Put([]byte("key005"), []byte("new"), wo); err != nil {
		t.Fatal(err)
	}
	v, _ := get(db, []byte("key005"))
	if string(v) != "new" {
		t.Fatalf("shadowed read = %q", v)
	}
}

func TestCompaction(t *testing.T) {
	db := openTmp(t, Options{memtableBytes: 512, compactAt: 3})
	wo := WriteOptions{}
	for i := 0; i < 300; i++ {
		if err := db.Put([]byte(fmt.Sprintf("k%04d", i%50)), bytes.Repeat([]byte{byte(i)}, 40), wo); err != nil {
			t.Fatal(err)
		}
	}
	if db.stats.compactions == 0 {
		t.Fatal("no compaction happened")
	}
	n, err := count(db)
	if err != nil {
		t.Fatal(err)
	}
	if n != 50 {
		t.Fatalf("Len = %d, want 50", n)
	}
}

func TestWALRecovery(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	wo := WriteOptions{Sync: true} // force durability for the recovery test
	for i := 0; i < 20; i++ {
		if err := db.Put([]byte(fmt.Sprintf("k%02d", i)), []byte(fmt.Sprintf("v%02d", i)), wo); err != nil {
			t.Fatal(err)
		}
	}
	// Abandon without Close (simulated crash: OS kept the synced WAL).
	db.wal.Close()
	db2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	for i := 0; i < 20; i++ {
		k := fmt.Sprintf("k%02d", i)
		v, err := get(db2, []byte(k))
		if err != nil || string(v) != fmt.Sprintf("v%02d", i) {
			t.Errorf("Get(%s) = %q, %v", k, v, err)
		}
	}
}

func TestBufferedDurabilityWindow(t *testing.T) {
	// With a large syncEvery, writes are acknowledged before any fsync:
	// the paper's criticism of LevelDB's default mode.
	db := openTmp(t, Options{syncEvery: 1 << 20})
	wo := WriteOptions{}
	for i := 0; i < 100; i++ {
		db.Put([]byte(fmt.Sprintf("k%d", i)), []byte("v"), wo)
	}
	if got := db.stats.fdatasyncs; got != 0 {
		t.Errorf("buffered mode issued %d fdatasyncs for 100 small writes", got)
	}
	// Sync mode: one fsync per write.
	before := db.stats.fdatasyncs
	for i := 0; i < 10; i++ {
		db.Put([]byte(fmt.Sprintf("s%d", i)), []byte("v"), WriteOptions{Sync: true})
	}
	if got := db.stats.fdatasyncs - before; got != 10 {
		t.Errorf("sync mode issued %d fdatasyncs for 10 writes", got)
	}
}

func TestFdatasyncsPerMillionBytesShape(t *testing.T) {
	// ~1000 kB between syncs means ~116 B records require ~9000 writes per
	// sync; verify the order of magnitude the paper reports (<100 syncs
	// for 1M x 116 B inserts scaled down here).
	db := openTmp(t, Options{syncEvery: 1000 << 10, memtableBytes: 64 << 20})
	wo := WriteOptions{}
	val := bytes.Repeat([]byte{7}, 100)
	for i := 0; i < 50000; i++ {
		db.Put([]byte(fmt.Sprintf("%016d", i)), val, wo)
	}
	syncs := db.stats.fdatasyncs
	// 50k * 124 B = 6.2 MB -> ~6 syncs.
	if syncs < 3 || syncs > 12 {
		t.Errorf("fdatasyncs = %d for 6.2 MB of writes, want ~6", syncs)
	}
}

func TestIteratorMergesAndOrders(t *testing.T) {
	db := openTmp(t, Options{memtableBytes: 1 << 10})
	wo := WriteOptions{}
	model := map[string]string{}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 300; i++ {
		k := fmt.Sprintf("key%03d", rng.Intn(100))
		v := fmt.Sprintf("val%d", i)
		db.Put([]byte(k), []byte(v), wo)
		model[k] = v
	}
	var wantKeys []string
	for k := range model {
		wantKeys = append(wantKeys, k)
	}
	sort.Strings(wantKeys)

	it := db.NewIterator(false)
	var got []string
	for it.Next() {
		got = append(got, string(it.Key()))
		if model[string(it.Key())] != string(it.Value()) {
			t.Errorf("value mismatch for %s", it.Key())
		}
	}
	if it.Err() != nil {
		t.Fatal(it.Err())
	}
	if len(got) != len(wantKeys) {
		t.Fatalf("forward iterator saw %d keys, want %d", len(got), len(wantKeys))
	}
	for i := range got {
		if got[i] != wantKeys[i] {
			t.Fatalf("forward order wrong at %d: %s vs %s", i, got[i], wantKeys[i])
		}
	}

	rit := db.NewIterator(true)
	got = got[:0]
	for rit.Next() {
		got = append(got, string(rit.Key()))
	}
	for i := range got {
		if got[i] != wantKeys[len(wantKeys)-1-i] {
			t.Fatalf("reverse order wrong at %d", i)
		}
	}
}

func TestIteratorSnapshotSurvivesCompaction(t *testing.T) {
	db := openTmp(t, Options{memtableBytes: 512, compactAt: 2})
	wo := WriteOptions{}
	for i := 0; i < 50; i++ {
		db.Put([]byte(fmt.Sprintf("k%03d", i)), bytes.Repeat([]byte{1}, 40), wo)
	}
	it := db.NewIterator(false)
	// Trigger compaction while the iterator is live.
	for i := 0; i < 200; i++ {
		db.Put([]byte(fmt.Sprintf("z%03d", i)), bytes.Repeat([]byte{2}, 40), wo)
	}
	n := 0
	for it.Next() {
		n++
	}
	if it.Err() != nil {
		t.Fatalf("iterator failed after compaction: %v", it.Err())
	}
	if n < 50 {
		t.Errorf("iterator saw %d keys, want >= 50", n)
	}
}

func TestLenAcrossLayers(t *testing.T) {
	db := openTmp(t, Options{memtableBytes: 512})
	wo := WriteOptions{}
	for i := 0; i < 100; i++ {
		db.Put([]byte(fmt.Sprintf("k%03d", i)), bytes.Repeat([]byte{1}, 30), wo)
	}
	if db.stats.flushes == 0 {
		t.Fatal("memtable never flushed")
	}
	for i := 0; i < 10; i++ { // newer versions in the memtable shadow flushed ones
		db.Put([]byte(fmt.Sprintf("k%03d", i)), bytes.Repeat([]byte{2}, 30), wo)
	}
	n, err := count(db)
	if err != nil {
		t.Fatal(err)
	}
	if n != 100 {
		t.Errorf("Len = %d, want 100", n)
	}
}
