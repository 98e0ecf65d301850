package shard

import (
	"bytes"
	"errors"
	"fmt"
	"hash/fnv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/kvstore"
	"repro/internal/migrate"
	"repro/internal/pmem"
	"repro/internal/ptm"
)

// checkOwnership asserts the migration invariant: every stored key lives
// on exactly the shard the placement routes it to — no key is orphaned on
// a shard that no longer owns its slot, and none exists twice.
func checkOwnership(t *testing.T, s *Store, ctx string) {
	t.Helper()
	seen := map[string]int{}
	for i := 0; i < s.NumShards(); i++ {
		var keys []string
		err := s.View(i, func(tx ptm.Tx, db *kvstore.DB) error {
			keys = keys[:0]
			db.RangeTx(tx, false, func(k, v []byte) bool {
				keys = append(keys, string(k))
				return true
			})
			return nil
		})
		if err != nil {
			t.Fatalf("%s: scanning shard %d: %v", ctx, i, err)
		}
		for _, k := range keys {
			if owner := s.ShardFor([]byte(k)); owner != i {
				t.Fatalf("%s: key %q stored on shard %d but placement routes it to %d", ctx, k, i, owner)
			}
			if prev, dup := seen[k]; dup {
				t.Fatalf("%s: key %q exists on shards %d and %d", ctx, k, prev, i)
			}
			seen[k] = i
		}
	}
}

// A fresh store's identity placement must route byte-for-byte like the
// pre-placement hash-mod-N, including sidecar keys (which route by base).
func TestPlacementRoutingMatchesLegacyHash(t *testing.T) {
	for _, n := range []int{1, 2, 3, 5} {
		s, err := Open(testOpts(n))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 400; i++ {
			key := []byte(fmt.Sprintf("legacy-key-%04d", i))
			h := fnv.New64a()
			h.Write(key)
			want := int(h.Sum64() % uint64(n))
			if got := s.ShardFor(key); got != want {
				t.Fatalf("shards=%d key %s: placement routes to %d, hash%%N to %d", n, key, got, want)
			}
			if got := s.ShardFor(SidecarKey("exp", key)); got != want {
				t.Fatalf("shards=%d key %s: sidecar routes to %d, base to %d", n, key, got, want)
			}
		}
		s.Close()
	}
}

func loadKeys(t *testing.T, s *Store, n int, tag string) map[string]string {
	t.Helper()
	want := map[string]string{}
	for i := 0; i < n; i++ {
		k, v := fmt.Sprintf("%s-%04d", tag, i), fmt.Sprintf("val-%s-%04d", tag, i)
		if err := s.Put([]byte(k), []byte(v)); err != nil {
			t.Fatal(err)
		}
		want[k] = v
	}
	return want
}

// An end-to-end online split: a fresh shard comes up, half the source's
// slots move, every key stays readable with its latest value, and each key
// ends on exactly its placement owner.
func TestSplitEndToEnd(t *testing.T) {
	s, err := Open(testOpts(2))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	want := loadKeys(t, s, 300, "split")

	d := migrate.New(s, migrate.Options{BatchKeys: 16})
	dst, err := d.Split(0)
	if err != nil {
		t.Fatalf("Split: %v", err)
	}
	if dst != 2 || s.NumShards() != 3 {
		t.Fatalf("split produced dst=%d, NumShards=%d", dst, s.NumShards())
	}
	st := d.Status()
	if st.Phase != "done" || st.CopiedKeys == 0 {
		t.Fatalf("driver status after split: %+v", st)
	}
	if len(s.OwnedSlots(2)) == 0 {
		t.Fatal("destination shard owns no slots after split")
	}
	checkAllPresent(t, s, want, "after split")
	checkOwnership(t, s, "after split")
	if s.Len() != len(want) {
		t.Fatalf("Len = %d, want %d (cleanup left duplicates?)", s.Len(), len(want))
	}
	if vc := s.ViolationCount(); vc != 0 {
		t.Fatalf("audit violations: %d", vc)
	}

	// The placement survives capture + reopen: same routing, same data.
	imgs := captureAll(s, pmem.DropAll)
	rs := reopenImages(t, imgs, testOpts(0))
	defer rs.Close()
	if rs.NumShards() != 3 {
		t.Fatalf("reopened NumShards = %d", rs.NumShards())
	}
	checkAllPresent(t, rs, want, "after split+reopen")
	checkOwnership(t, rs, "after split+reopen")
}

// Writes racing the split — including writes to the moving slice, which
// dual-track through the dirty set and the cutover fence — must all
// survive with their final values.
func TestSplitWithConcurrentWrites(t *testing.T) {
	s, err := Open(testOpts(2))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	want := loadKeys(t, s, 200, "live")

	d := migrate.New(s, migrate.Options{BatchKeys: 8})
	if _, err := d.Begin(0, -1); err != nil {
		t.Fatal(err)
	}
	// Concurrent writers overwrite existing keys (no inserts, no deletes),
	// so the exact value of a contended key is racy but the key set is
	// fixed: the checks below are the set, ownership, and the audit.
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i <= 200; i++ {
				select {
				case <-stop:
					return
				default:
				}
				k := fmt.Sprintf("live-%04d", (i*7+w*61)%200)
				v := fmt.Sprintf("rewrite-%d-%d", w, i)
				if err := s.Put([]byte(k), []byte(v)); err != nil {
					t.Errorf("Put during split: %v", err)
					return
				}
			}
		}(w)
	}
	if err := d.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	close(stop)
	wg.Wait()
	if t.Failed() {
		return
	}
	checkOwnership(t, s, "after live split")
	if s.Len() != len(want) {
		t.Fatalf("Len = %d, want %d", s.Len(), len(want))
	}
	if vc := s.ViolationCount(); vc != 0 {
		t.Fatalf("audit violations: %d", vc)
	}
}

// splitWithDirtyKeys runs one split whose cutover has to recopy several
// batches of dirty keys — keys inserted between the copy phase and the
// cutover, so the recopy allocates on dst and its order shows in the layout —
// and returns the destination shard's media image.
func splitWithDirtyKeys(t *testing.T) []byte {
	t.Helper()
	const batchKeys = 8
	s, err := Open(testOpts(2))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	loadKeys(t, s, 200, "dirty")
	d := migrate.New(s, migrate.Options{BatchKeys: batchKeys})
	dst, err := d.Begin(0, -1)
	if err != nil {
		t.Fatal(err)
	}
	for d.Status().Phase == "copy" {
		if _, err := d.Step(); err != nil {
			t.Fatal(err)
		}
	}
	loadKeys(t, s, 200, "late") // the ones landing in moving slots are dirty
	if err := d.Run(); err != nil {
		t.Fatal(err)
	}
	if n := d.Status().RecopiedKeys; n < 2*batchKeys {
		t.Fatalf("cutover recopied %d keys, want at least %d for the drain to span batches", n, 2*batchKeys)
	}
	dev := s.Devices()[dst]
	dev.PersistAll()
	return dev.Persisted()
}

// The cutover drains the dirty set in sorted key order, so the same split
// leaves the same bytes on the destination: with map-order draining the Go
// runtime picked each recopy batch's membership and its put order, and a
// seeded crash campaign over a split did not replay (same seed, different
// pmem_store_bytes_total).
func TestRecopyDirtyIsDeterministic(t *testing.T) {
	a, b := splitWithDirtyKeys(t), splitWithDirtyKeys(t)
	if !bytes.Equal(a, b) {
		t.Fatal("two runs of the same split left different destination images")
	}
}

// A crash mid-copy rolls BACK: the journal's recovery arm wipes the
// destination's partial copies and the source owns every key again.
func TestCrashDuringCopyRollsBack(t *testing.T) {
	s, err := Open(testOpts(2))
	if err != nil {
		t.Fatal(err)
	}
	want := loadKeys(t, s, 120, "copycrash")

	d := migrate.New(s, migrate.Options{BatchKeys: 8})
	if _, err := d.Begin(0, -1); err != nil {
		t.Fatal(err)
	}
	// A few copy batches land durably on dst, then the "machine" dies.
	for i := 0; i < 3; i++ {
		if done, err := d.Step(); err != nil || done {
			t.Fatalf("copy step %d: done=%v err=%v", i, done, err)
		}
	}
	imgs := captureAll(s, pmem.DropAll)
	s.Close()

	if !PlacementRecoveryPending(imgs[len(imgs)-1]) {
		t.Fatal("captured coordinator image shows no migration journal")
	}
	rs := reopenImages(t, imgs, testOpts(0))
	defer rs.Close()
	if got := rs.Placement(); got.Migration != nil {
		t.Fatalf("journal not resolved at reopen: %+v", got.Migration)
	}
	// Roll-back: dst (shard 2) must hold nothing; src owns every key.
	if n := rs.NumShards(); n != 3 {
		t.Fatalf("reopened NumShards = %d", n)
	}
	var dstKeys int
	if err := rs.View(2, func(tx ptm.Tx, db *kvstore.DB) error {
		dstKeys = db.Len()
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if dstKeys != 0 {
		t.Fatalf("destination still holds %d keys after copy-phase rollback", dstKeys)
	}
	checkAllPresent(t, rs, want, "after copy-crash recovery")
	checkOwnership(t, rs, "after copy-crash recovery")

	// The rolled-back store can split again, to completion.
	d2 := migrate.New(rs, migrate.Options{BatchKeys: 16})
	if _, err := d2.Begin(0, 2); err != nil {
		t.Fatalf("re-split Begin: %v", err)
	}
	if err := d2.Run(); err != nil {
		t.Fatalf("re-split: %v", err)
	}
	checkAllPresent(t, rs, want, "after re-split")
	checkOwnership(t, rs, "after re-split")
}

// A crash after the cutover publish rolls FORWARD: the flip record already
// moved ownership, recovery purges the source's leftovers.
func TestCrashAfterCutoverRollsForward(t *testing.T) {
	s, err := Open(testOpts(2))
	if err != nil {
		t.Fatal(err)
	}
	want := loadKeys(t, s, 120, "cutcrash")

	d := migrate.New(s, migrate.Options{BatchKeys: 8})
	if _, err := d.Begin(0, -1); err != nil {
		t.Fatal(err)
	}
	// Step until the cutover has published (driver reaches cleanup).
	for d.Status().Phase != "cleanup" {
		if done, err := d.Step(); err != nil {
			t.Fatalf("step: %v", err)
		} else if done {
			t.Fatal("migration finished before a cleanup-phase capture")
		}
	}
	// One bounded cleanup batch runs; the crash lands mid-cleanup.
	if done, err := d.Step(); err != nil || done {
		t.Fatalf("cleanup step: done=%v err=%v", done, err)
	}
	imgs := captureAll(s, pmem.DropAll)
	s.Close()

	if !PlacementRecoveryPending(imgs[len(imgs)-1]) {
		t.Fatal("captured coordinator image shows no migration journal")
	}
	rs := reopenImages(t, imgs, testOpts(0))
	defer rs.Close()
	if got := rs.Placement(); got.Migration != nil {
		t.Fatalf("journal not resolved at reopen: %+v", got.Migration)
	}
	if rs.Len() != len(want) {
		t.Fatalf("Len = %d, want %d", rs.Len(), len(want))
	}
	checkAllPresent(t, rs, want, "after cutover-crash recovery")
	checkOwnership(t, rs, "after cutover-crash recovery")
	// Forward means dst kept its slots: shard 2 must own some and hold keys.
	if len(rs.OwnedSlots(2)) == 0 {
		t.Fatal("destination lost its slots — recovery rolled the cutover back")
	}
}

// Stop before cutover aborts: the source keeps everything, the fresh
// destination shard stays empty (and reusable by a later split).
func TestStopAbortsBeforeCutover(t *testing.T) {
	s, err := Open(testOpts(2))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	want := loadKeys(t, s, 80, "abort")

	d := migrate.New(s, migrate.Options{BatchKeys: 8})
	if _, err := d.Begin(0, -1); err != nil {
		t.Fatal(err)
	}
	if done, err := d.Step(); err != nil || done {
		t.Fatalf("first step: done=%v err=%v", done, err)
	}
	d.Stop()
	if _, err := d.Step(); !errors.Is(err, migrate.ErrStopped) {
		t.Fatalf("stopped step err = %v, want ErrStopped", err)
	}
	if got := s.Placement(); got.Migration != nil {
		t.Fatalf("journal survives abort: %+v", got.Migration)
	}
	checkAllPresent(t, s, want, "after abort")
	checkOwnership(t, s, "after abort")
	if len(s.OwnedSlots(2)) != 0 {
		t.Fatal("aborted migration left the destination owning slots")
	}
}

// Reads must stay consistent throughout every phase: a reader hammering
// the moving keys during a split never sees a missing key or a stale
// value for a key it just wrote.
func TestReadsDuringSplitNeverMiss(t *testing.T) {
	s, err := Open(testOpts(2))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	want := loadKeys(t, s, 150, "read")

	d := migrate.New(s, migrate.Options{BatchKeys: 4})
	if _, err := d.Begin(0, -1); err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			i := 0
			for {
				select {
				case <-stop:
					return
				default:
				}
				k := fmt.Sprintf("read-%04d", (i+r*37)%150)
				got, err := s.Get([]byte(k))
				if err != nil {
					t.Errorf("Get(%s) during split: %v", k, err)
					return
				}
				if !bytes.Equal(got, []byte(want[k])) {
					t.Errorf("Get(%s) = %q, want %q", k, got, want[k])
					return
				}
				i++
			}
		}(r)
	}
	if err := d.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	close(stop)
	wg.Wait()
	if t.Failed() {
		return
	}
	checkOwnership(t, s, "after read-hammered split")
}

// Serving continues through a split: before every step of the migration —
// each copy batch, the cutover, each cleanup batch — every client completes
// at least one more Put and Get, on keys of which some move. A phase that
// left foreground operations blocked until the split finished fails here.
// How much throughput a split may cost is a benchmark bound, not asserted
// here.
func TestServingContinuesThroughSplit(t *testing.T) {
	s, err := Open(testOpts(2))
	if err != nil {
		t.Fatal(err)
	}
	loadKeys(t, s, 200, "serve")

	d := migrate.New(s, migrate.Options{BatchKeys: 8})
	if _, err := d.Begin(0, -1); err != nil {
		t.Fatal(err)
	}
	const clients = 3
	var done [clients]atomic.Uint64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	defer func() {
		// A client stuck inside the store cannot be joined; leave it and
		// the store behind rather than hang the test binary.
		close(stop)
		joined := make(chan struct{})
		go func() { wg.Wait(); close(joined) }()
		select {
		case <-joined:
			s.Close()
		case <-time.After(10 * time.Second):
			t.Error("clients still blocked in the store after the test")
		}
	}()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				// Every writer stores a key as its own value, so the
				// read-back holds whichever client wrote last.
				k := []byte(fmt.Sprintf("serve-%04d", (i*7+c*61)%200))
				if err := s.Put(k, k); err != nil {
					t.Errorf("Put(%s) during split: %v", k, err)
					return
				}
				if got, err := s.Get(k); err != nil || !bytes.Equal(got, k) {
					t.Errorf("Get(%s) during split = %q, %v", k, got, err)
					return
				}
				done[c].Add(1)
			}
		}(c)
	}

	steps := map[string]int{}
	for {
		phase := d.Status().Phase
		var before [clients]uint64
		for c := range done {
			before[c] = done[c].Load()
		}
		deadline := time.Now().Add(10 * time.Second)
		for c := range done {
			for done[c].Load() == before[c] {
				if t.Failed() {
					return
				}
				if time.Now().After(deadline) {
					t.Fatalf("client %d completed no operation in the %s phase", c, phase)
				}
				time.Sleep(50 * time.Microsecond)
			}
		}
		steps[phase]++
		fin, err := d.Step()
		if err != nil {
			t.Fatalf("Step in the %s phase: %v", phase, err)
		}
		if fin {
			break
		}
	}
	if steps["copy"] < 2 || steps["cutover"] != 1 || steps["cleanup"] < 1 {
		t.Fatalf("steps per phase = %v, want several copy batches, one cutover, cleanup", steps)
	}
	checkOwnership(t, s, "after served split")
}

// AddShard is refused while a migration is journaled, and a second Begin
// is refused while one is active.
func TestMigrationExclusion(t *testing.T) {
	s, err := Open(testOpts(2))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	loadKeys(t, s, 40, "excl")
	d := migrate.New(s, migrate.Options{})
	if _, err := d.Begin(0, -1); err != nil {
		t.Fatal(err)
	}
	if _, err := s.AddShard(); err == nil {
		t.Fatal("AddShard allowed during a migration")
	}
	if err := s.MigrationBegin(1, 0, s.OwnedSlots(1)[:1]); err == nil {
		t.Fatal("second MigrationBegin allowed")
	}
	if _, err := d.Begin(1, -1); !errors.Is(err, migrate.ErrBusy) {
		t.Fatalf("second driver Begin err = %v, want ErrBusy", err)
	}
	if err := d.Run(); err != nil {
		t.Fatal(err)
	}
	checkOwnership(t, s, "after exclusion test")
}
