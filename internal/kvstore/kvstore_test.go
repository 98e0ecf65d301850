package kvstore

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/pmem"
	"repro/internal/pstruct"
)

func openSmall(t testing.TB) *DB {
	t.Helper()
	db, err := Open(Options{RegionSize: 4 << 20})
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func TestPutGetDelete(t *testing.T) {
	db := openSmall(t)
	if err := db.Put([]byte("alpha"), []byte("1")); err != nil {
		t.Fatal(err)
	}
	v, err := db.Get([]byte("alpha"))
	if err != nil || string(v) != "1" {
		t.Fatalf("Get = %q, %v", v, err)
	}
	if _, err := db.Get([]byte("beta")); !errors.Is(err, ErrNotFound) {
		t.Fatalf("missing key: %v", err)
	}
	if err := db.Put([]byte("alpha"), []byte("2")); err != nil {
		t.Fatal(err)
	}
	v, _ = db.Get([]byte("alpha"))
	if string(v) != "2" {
		t.Fatalf("overwrite: %q", v)
	}
	if db.Len() != 1 {
		t.Fatalf("Len = %d", db.Len())
	}
	if err := db.Delete([]byte("alpha")); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Get([]byte("alpha")); !errors.Is(err, ErrNotFound) {
		t.Fatalf("after delete: %v", err)
	}
	if err := db.Delete([]byte("alpha")); err != nil {
		t.Fatalf("delete absent: %v", err)
	}
}

func TestBatchAtomicity(t *testing.T) {
	db := openSmall(t)
	var b Batch
	for i := 0; i < 20; i++ {
		b.Put([]byte(fmt.Sprintf("k%02d", i)), []byte(fmt.Sprintf("v%02d", i)))
	}
	b.Delete([]byte("k05"))
	if b.Len() != 21 {
		t.Fatalf("batch Len = %d", b.Len())
	}
	if err := db.Write(&b); err != nil {
		t.Fatal(err)
	}
	if db.Len() != 19 {
		t.Fatalf("Len = %d, want 19", db.Len())
	}
	if _, err := db.Get([]byte("k05")); !errors.Is(err, ErrNotFound) {
		t.Fatal("deleted key survived batch")
	}
	b.Reset()
	if b.Len() != 0 {
		t.Fatal("Reset did not clear")
	}
}

func TestRangeSnapshot(t *testing.T) {
	db := openSmall(t)
	want := map[string]string{}
	for i := 0; i < 50; i++ {
		k, v := fmt.Sprintf("key%03d", i), fmt.Sprintf("val%03d", i)
		want[k] = v
		if err := db.Put([]byte(k), []byte(v)); err != nil {
			t.Fatal(err)
		}
	}
	seen := 0
	db.Range(false, func(k, v []byte) bool {
		if want[string(k)] != string(v) {
			t.Errorf("pair (%s,%s) unexpected", k, v)
		}
		seen++
		return true
	})
	if seen != 50 {
		t.Errorf("forward range saw %d", seen)
	}
	seen = 0
	db.Range(true, func(k, v []byte) bool { seen++; return true })
	if seen != 50 {
		t.Errorf("reverse range saw %d", seen)
	}
	// Early stop.
	seen = 0
	db.Range(false, func(k, v []byte) bool { seen++; return seen < 7 })
	if seen != 7 {
		t.Errorf("early stop at %d", seen)
	}
}

func TestFileBackedPersistence(t *testing.T) {
	path := filepath.Join(t.TempDir(), "romulusdb.img")
	db, err := Open(Options{RegionSize: 2 << 20, Path: path})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Put([]byte("durable"), []byte("yes")); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2, err := Open(Options{RegionSize: 2 << 20, Path: path})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	v, err := db2.Get([]byte("durable"))
	if err != nil || string(v) != "yes" {
		t.Fatalf("after reopen: %q, %v", v, err)
	}
}

// TestReopenRunsNoUpdate: reopening an image whose map exists attaches to
// it; only a fresh store pays the update transaction that creates the map.
func TestReopenRunsNoUpdate(t *testing.T) {
	path := filepath.Join(t.TempDir(), "romulusdb.img")
	db, err := Open(Options{RegionSize: 2 << 20, Path: path})
	if err != nil {
		t.Fatal(err)
	}
	if n := db.Engine().Stats().UpdateTxs; n != 1 {
		t.Fatalf("fresh open ran %d update transactions, want 1 (the map's creation)", n)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2, err := Open(Options{RegionSize: 2 << 20, Path: path})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if n := db2.Engine().Stats().UpdateTxs; n != 0 {
		t.Fatalf("reopen ran %d update transactions, want 0", n)
	}
	if err := db2.Put([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	if v, err := db2.Get([]byte("k")); err != nil || string(v) != "v" {
		t.Fatalf("after reopen: %q, %v", v, err)
	}
}

func TestCrashRecoveryMidPut(t *testing.T) {
	db := openSmall(t)
	for i := 0; i < 100; i++ {
		db.Put([]byte(fmt.Sprintf("k%03d", i)), bytes.Repeat([]byte{byte(i)}, 100))
	}
	dev := db.Engine().Device()
	var img []byte
	n := 0
	dev.SetHooks(&pmem.Hooks{Pwb: func(uint64) {
		n++
		if img == nil && n == 5 {
			img = dev.CrashImage(pmem.KeepQueued)
		}
	}})
	db.Put([]byte("k050"), bytes.Repeat([]byte{0xFF}, 100))
	dev.SetHooks(nil)
	if img == nil {
		t.Fatal("no crash image")
	}
	eng, err := core.Open(pmem.FromImage(img, pmem.ModelDRAM), core.Config{Variant: core.RomLog})
	if err != nil {
		t.Fatal(err)
	}
	// Rewrap as a DB by hand: the map handle is stateless.
	db2 := &DB{eng: eng, m: pstruct.AttachByteMap(rootIdx)}
	v, err := db2.Get([]byte("k050"))
	if err != nil {
		t.Fatal(err)
	}
	old := bytes.Repeat([]byte{50}, 100)
	updated := bytes.Repeat([]byte{0xFF}, 100)
	if !bytes.Equal(v, old) && !bytes.Equal(v, updated) {
		t.Fatalf("k050 neither old nor new after crash: %v...", v[:4])
	}
	if db2.Len() != 100 {
		t.Fatalf("Len after crash = %d", db2.Len())
	}
}

// TestConcurrentSessions has each worker run its session of puts and gets
// on the shared DB at once; no worker registers with the store.
func TestConcurrentSessions(t *testing.T) {
	db := openSmall(t)
	const workers, items = 4, 100
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(me int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(me)))
			for i := 0; i < items; i++ {
				k := []byte(fmt.Sprintf("w%d-%03d", me, i))
				if err := db.Put(k, []byte{byte(me)}); err != nil {
					t.Error(err)
					return
				}
				if rng.Intn(4) == 0 {
					if v, err := db.Get(k); err != nil || v[0] != byte(me) {
						t.Errorf("Get(%s) = %v, %v", k, v, err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if db.Len() != workers*items {
		t.Fatalf("Len = %d, want %d", db.Len(), workers*items)
	}
}

// TestSessionBatchAndRange runs one caller's session of a batch, a range, a
// delete and a get on the DB.
func TestSessionBatchAndRange(t *testing.T) {
	db := openSmall(t)
	var b Batch
	b.Put([]byte("x"), []byte("1"))
	b.Put([]byte("y"), []byte("2"))
	if err := db.Write(&b); err != nil {
		t.Fatal(err)
	}
	n := 0
	db.Range(false, func(k, v []byte) bool { n++; return true })
	if n != 2 {
		t.Fatalf("range saw %d", n)
	}
	if err := db.Delete([]byte("x")); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Get([]byte("x")); !errors.Is(err, ErrNotFound) {
		t.Fatal("deleted key found")
	}
}

func TestStats(t *testing.T) {
	db := openSmall(t)
	db.Put([]byte("a"), []byte("1"))
	db.Put([]byte("b"), []byte("2"))
	db.Get([]byte("a"))
	s := db.Stats()
	if s.Pairs != 2 {
		t.Errorf("Pairs = %d", s.Pairs)
	}
	if s.UsedBytes <= 0 || s.RegionBytes < s.UsedBytes {
		t.Errorf("capacity stats: %+v", s)
	}
	if s.UpdateTxs < 2 || s.ReadTxs < 1 {
		t.Errorf("tx stats: %+v", s)
	}
}

func TestLargeValues(t *testing.T) {
	db, err := Open(Options{RegionSize: 8 << 20})
	if err != nil {
		t.Fatal(err)
	}
	// 100 KiB values, as in the fill-100k benchmark.
	val := bytes.Repeat([]byte("z"), 100<<10)
	for i := 0; i < 10; i++ {
		if err := db.Put([]byte(fmt.Sprintf("big%d", i)), val); err != nil {
			t.Fatal(err)
		}
	}
	got, err := db.Get([]byte("big7"))
	if err != nil || !bytes.Equal(got, val) {
		t.Fatalf("big value corrupted: len %d, %v", len(got), err)
	}
}

// TestSameSizeOverwriteStoresOnlyTheValue pins the silent-store fix for the
// line-aligned node: a Put that replaces a value with one of the same length
// stores the new bytes into the node's value line and nothing else in main —
// in particular not the node's unchanged lengths word, which would dirty the
// node's first line in both twins. A Put that changes the length within the
// node's capacity stores the value and the lengths word.
func TestSameSizeOverwriteStoresOnlyTheValue(t *testing.T) {
	db := openSmall(t)
	key := []byte("k")
	if err := db.Put(key, bytes.Repeat([]byte{1}, 64)); err != nil {
		t.Fatal(err)
	}
	eng := db.Engine()
	main := eng.DataOffsets()[0]
	type store struct{ off, n int }
	var stores []store // stores landing in main
	eng.Device().SetHooks(&pmem.Hooks{StoreAt: func(off, n int) {
		if off >= main && off < main+eng.RegionSize() {
			stores = append(stores, store{off, n})
		}
	}})
	defer eng.Device().SetHooks(nil)

	if err := db.Put(key, bytes.Repeat([]byte{2}, 64)); err != nil {
		t.Fatal(err)
	}
	if len(stores) != 1 || stores[0].n != 64 || stores[0].off%pmem.LineSize != 0 {
		t.Fatalf("same-size overwrite stored %v into main, want only the 64 value bytes, on one line", stores)
	}
	value := stores[0].off
	for _, n := range []int{48, 64} { // shrink, then grow back within capacity
		stores = nil
		if err := db.Put(key, bytes.Repeat([]byte{byte(n)}, n)); err != nil {
			t.Fatal(err)
		}
		if len(stores) != 2 || stores[1] != (store{value, n}) {
			t.Fatalf("%d-byte overwrite stored %v into main, want the lengths word and the value at %d", n, stores, value)
		}
		if v, err := db.Get(key); err != nil || !bytes.Equal(v, bytes.Repeat([]byte{byte(n)}, n)) {
			t.Fatalf("Get after %d-byte overwrite = %q, %v", n, v, err)
		}
	}
}
