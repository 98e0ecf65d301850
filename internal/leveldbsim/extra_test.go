package leveldbsim

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

// TestSyncForcesDurability: inside the buffered window, a Put with
// WriteOptions.Sync fdatasyncs before it returns.
func TestSyncForcesDurability(t *testing.T) {
	db := openTmp(t, Options{syncEvery: 1 << 30})
	db.Put([]byte("a"), []byte("1"), WriteOptions{})
	before := db.stats.fdatasyncs
	if err := db.Put([]byte("b"), []byte("2"), WriteOptions{Sync: true}); err != nil {
		t.Fatal(err)
	}
	if db.stats.fdatasyncs != before+1 {
		t.Error("a synced Put did not fdatasync")
	}
}

func TestReopenWithExistingSSTs(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, Options{memtableBytes: 512})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		db.Put([]byte(fmt.Sprintf("k%03d", i)), bytes.Repeat([]byte{byte(i)}, 30), WriteOptions{})
	}
	if db.stats.flushes == 0 {
		t.Fatal("no flush happened")
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2, err := Open(dir, Options{memtableBytes: 512})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	for i := 0; i < 100; i++ {
		v, err := get(db2, []byte(fmt.Sprintf("k%03d", i)))
		if err != nil || len(v) != 30 {
			t.Fatalf("Get(%d) after reopen = %v, %v", i, v, err)
		}
	}
	n, err := count(db2)
	if err != nil || n != 100 {
		t.Fatalf("Len = %d, %v", n, err)
	}
}

func TestOpenSSTRejectsCorruptFiles(t *testing.T) {
	dir := t.TempDir()
	// A .sst file with a truncated header.
	if err := os.WriteFile(filepath.Join(dir, "000001.sst"), []byte{1, 2, 3}, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{}); err == nil {
		t.Error("Open accepted a corrupt SST")
	}
	// A .sst claiming more records than it holds.
	var buf bytes.Buffer
	buf.Write([]byte{200, 0, 0, 0, 0, 0, 0, 0}) // count=200, no records
	if err := os.WriteFile(filepath.Join(dir, "000001.sst"), buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{}); err == nil {
		t.Error("Open accepted a truncated SST")
	}
}

func TestConcurrentReadersAndWriter(t *testing.T) {
	db := openTmp(t, Options{memtableBytes: 2 << 10})
	var wg sync.WaitGroup
	stop := make(chan struct{})
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			db.Put([]byte(fmt.Sprintf("k%04d", i%200)), bytes.Repeat([]byte{byte(i)}, 20), WriteOptions{})
		}
	}()
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				get(db, []byte(fmt.Sprintf("k%04d", i%200)))
			}
		}()
	}
	// Also run an iterator concurrently.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 5; i++ {
			it := db.NewIterator(false)
			for it.Next() {
			}
			if it.Err() != nil {
				t.Errorf("iterator: %v", it.Err())
			}
		}
	}()
	wg.Wait()
	close(stop)
	<-writerDone
}
