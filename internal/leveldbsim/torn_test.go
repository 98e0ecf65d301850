package leveldbsim

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// A WAL with a torn tail (half a record, as after a crash mid-write) must
// recover the intact prefix and ignore the tail, like LevelDB's log reader.
func TestTornWALTailRecoversPrefix(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	wo := WriteOptions{Sync: true}
	for i := 0; i < 10; i++ {
		if err := db.Put([]byte(fmt.Sprintf("k%02d", i)), []byte("v"), wo); err != nil {
			t.Fatal(err)
		}
	}
	db.wal.Close()

	// Tear the tail: append half a record.
	walPath := filepath.Join(dir, "wal.log")
	f, err := os.OpenFile(walPath, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{3, 0, 0, 0, 1, 0}); err != nil { // truncated header
		t.Fatal(err)
	}
	f.Close()

	db2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen with torn WAL: %v", err)
	}
	defer db2.Close()
	for i := 0; i < 10; i++ {
		if _, err := get(db2, []byte(fmt.Sprintf("k%02d", i))); err != nil {
			t.Errorf("key k%02d lost to torn tail: %v", i, err)
		}
	}
}

// A corrupt length field (absurd value) must also terminate replay safely.
func TestCorruptWALLengthStopsReplay(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Put([]byte("good"), []byte("1"), WriteOptions{Sync: true}); err != nil {
		t.Fatal(err)
	}
	db.wal.Close()
	f, err := os.OpenFile(filepath.Join(dir, "wal.log"), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	// klen = 2^30: insane, must be treated as corruption.
	f.Write([]byte{0, 0, 0, 64, 4, 0, 0, 0})
	f.Write(make([]byte, 64))
	f.Close()

	db2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen with corrupt WAL: %v", err)
	}
	defer db2.Close()
	if _, err := get(db2, []byte("good")); err != nil {
		t.Errorf("intact record lost: %v", err)
	}
	n, _ := count(db2)
	if n != 1 {
		t.Errorf("Len = %d, want 1", n)
	}
}

// Unsynced buffered writes are allowed to vanish at a crash — that is the
// buffered-durability window the paper criticizes. Verify the store still
// opens and retains everything that WAS synced.
func TestCrashLosesOnlyUnsyncedSuffix(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, Options{syncEvery: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Put([]byte("synced"), []byte("1"), WriteOptions{Sync: true}); err != nil {
		t.Fatal(err)
	}
	// Buffered writes: never flushed to the file.
	for i := 0; i < 5; i++ {
		db.Put([]byte(fmt.Sprintf("buf%d", i)), []byte("x"), WriteOptions{})
	}
	// Crash: close the fd without flushing the bufio layer.
	db.wal.Close()

	db2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if _, err := get(db2, []byte("synced")); err != nil {
		t.Errorf("synced write lost: %v", err)
	}
	lost := 0
	for i := 0; i < 5; i++ {
		if _, err := get(db2, []byte(fmt.Sprintf("buf%d", i))); errors.Is(err, errNotFound) {
			lost++
		}
	}
	if lost != 5 {
		t.Errorf("expected all 5 buffered writes lost, lost %d", lost)
	}
}
