package shard

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/kvstore"
	"repro/internal/pmem"
)

func testOpts(shards int) Options {
	return Options{
		Shards:     shards,
		RegionSize: 256 << 10,
		CoordSize:  64 << 10,
		Variant:    core.RomLog,
		Audit:      true,
	}
}

// captureAll snapshots every store device under the given policy, in
// Devices order (shards first, coordinator last).
func captureAll(s *Store, p pmem.CrashPolicy) [][]byte {
	devs := s.Devices()
	imgs := make([][]byte, len(devs))
	for i, d := range devs {
		imgs[i] = d.CrashImage(p)
	}
	return imgs
}

// reopenImages rebuilds devices from captured images and reopens the store.
func reopenImages(t *testing.T, imgs [][]byte, opts Options) *Store {
	t.Helper()
	devs := make([]*pmem.Device, len(imgs))
	for i, img := range imgs {
		devs[i] = pmem.FromImage(img, pmem.ModelDRAM)
	}
	st, err := Reopen(devs, opts)
	if err != nil {
		t.Fatalf("Reopen: %v", err)
	}
	return st
}

// spanningBatch builds a batch guaranteed to touch at least two shards and
// returns it with the expected final contents.
func spanningBatch(t *testing.T, s *Store, n int) (*kvstore.Batch, map[string]string) {
	t.Helper()
	b := &kvstore.Batch{}
	want := map[string]string{}
	hit := map[int]bool{}
	for i := 0; i < n; i++ {
		k, v := fmt.Sprintf("xk-%03d", i), fmt.Sprintf("xv-%03d", i)
		b.Put([]byte(k), []byte(v))
		want[k] = v
		hit[s.ShardFor([]byte(k))] = true
	}
	if len(hit) < 2 {
		t.Fatalf("test batch only touched %d shard(s); enlarge it", len(hit))
	}
	return b, want
}

func checkAllPresent(t *testing.T, s *Store, want map[string]string, ctx string) {
	t.Helper()
	for k, v := range want {
		got, err := s.Get([]byte(k))
		if err != nil {
			t.Fatalf("%s: key %s: %v", ctx, k, err)
		}
		if !bytes.Equal(got, []byte(v)) {
			t.Fatalf("%s: key %s = %q, want %q", ctx, k, got, v)
		}
	}
}

func checkAllAbsent(t *testing.T, s *Store, want map[string]string, ctx string) {
	t.Helper()
	for k := range want {
		if _, err := s.Get([]byte(k)); err != ErrNotFound {
			t.Fatalf("%s: key %s should be absent, got err=%v", ctx, k, err)
		}
	}
}

func checkNoViolations(t *testing.T, s *Store, ctx string) {
	t.Helper()
	if n := s.ViolationCount(); n != 0 {
		t.Fatalf("%s: %d durability violations", ctx, n)
	}
}

// TestStoreBasicRouting pins single-key routing: every key lands on the
// shard ShardFor names, routing is stable, and ops behave like a flat map.
func TestStoreBasicRouting(t *testing.T) {
	s, err := Open(testOpts(4))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	hit := map[int]int{}
	for i := 0; i < 64; i++ {
		k := []byte(fmt.Sprintf("key-%03d", i))
		v := []byte(fmt.Sprintf("val-%03d", i))
		if err := s.Put(k, v); err != nil {
			t.Fatal(err)
		}
		hit[s.ShardFor(k)]++
	}
	if len(hit) != 4 {
		t.Fatalf("64 keys hit only %d of 4 shards: %v", len(hit), hit)
	}
	if n := s.Len(); n != 64 {
		t.Fatalf("Len = %d, want 64", n)
	}
	// Each shard's map holds exactly the keys routed to it.
	st := s.Stats()
	for i, row := range st.PerShard {
		if row.Pairs != hit[i] {
			t.Fatalf("shard %d holds %d pairs, want %d", i, row.Pairs, hit[i])
		}
	}
	for i := 0; i < 64; i++ {
		k := []byte(fmt.Sprintf("key-%03d", i))
		got, err := s.Get(k)
		if err != nil {
			t.Fatal(err)
		}
		if want := fmt.Sprintf("val-%03d", i); string(got) != want {
			t.Fatalf("key %s = %q, want %q", k, got, want)
		}
	}
	if err := s.Delete([]byte("key-000")); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get([]byte("key-000")); err != ErrNotFound {
		t.Fatalf("deleted key: want ErrNotFound, got %v", err)
	}
	checkNoViolations(t, s, "basic ops")
}

// TestStoreSingleShardBatchFastPath pins that a batch whose keys all route
// to one shard commits on the shard's direct path, never touching the
// coordinator.
func TestStoreSingleShardBatchFastPath(t *testing.T) {
	s, err := Open(testOpts(2))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	// Collect keys until we have 3 on the same shard.
	var keys [][]byte
	for i := 0; len(keys) < 3; i++ {
		k := []byte(fmt.Sprintf("fp-%d", i))
		if s.ShardFor(k) == 0 {
			keys = append(keys, k)
		}
	}
	b := &kvstore.Batch{}
	for _, k := range keys {
		b.Put(k, []byte("v"))
	}
	if err := s.Write(b); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.XPrepares != 0 || st.XCommits != 0 {
		t.Fatalf("single-shard batch reached the coordinator: %+v", st)
	}
	if got := s.batchSingle.Load(); got != 1 {
		t.Fatalf("shard_batch_single_total = %d, want 1", got)
	}
	for _, k := range keys {
		if _, err := s.Get(k); err != nil {
			t.Fatalf("key %s: %v", k, err)
		}
	}
}

// TestStoreCrossShardBatchCommit pins the happy path of the two-phase
// protocol: a spanning batch lands atomically, the 2PC counters advance,
// last-op-wins holds across the shard split, and the auditors stay clean.
func TestStoreCrossShardBatchCommit(t *testing.T) {
	s, err := Open(testOpts(4))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	if err := s.Put([]byte("keep"), []byte("old")); err != nil {
		t.Fatal(err)
	}
	b, want := spanningBatch(t, s, 12)
	// Last-op-wins riders: a key Put then Deleted, a key Deleted then Put.
	b.Put([]byte("gone"), []byte("tmp"))
	b.Delete([]byte("gone"))
	b.Delete([]byte("back"))
	b.Put([]byte("back"), []byte("yes"))
	want["back"] = "yes"

	if err := s.Write(b); err != nil {
		t.Fatal(err)
	}
	checkAllPresent(t, s, want, "after commit")
	if _, err := s.Get([]byte("gone")); err != ErrNotFound {
		t.Fatalf("put-then-deleted key survived: err=%v", err)
	}
	if got, _ := s.Get([]byte("keep")); string(got) != "old" {
		t.Fatalf("unrelated key disturbed: %q", got)
	}
	st := s.Stats()
	if st.XPrepares != 1 || st.XCommits != 1 || st.XAborts != 0 {
		t.Fatalf("2PC counters: %+v", st)
	}
	checkNoViolations(t, s, "cross-shard commit")

	// The same store keeps working for follow-up cross-shard traffic.
	b2, want2 := spanningBatch(t, s, 6)
	if err := s.Write(b2); err != nil {
		t.Fatal(err)
	}
	checkAllPresent(t, s, want2, "second batch")
	if st := s.Stats(); st.XCommits != 2 {
		t.Fatalf("XCommits = %d, want 2", st.XCommits)
	}
}

// TestCrossShardReplayAfterCrash is the deterministic roll-forward proof:
// images are captured at the exact protocol point where the prepare is
// durable and only SOME shards have applied. Recovery must replay the batch
// to the shards left behind — the acknowledged-durable prepare record makes
// the batch's outcome commit, never partial.
func TestCrossShardReplayAfterCrash(t *testing.T) {
	s, err := Open(testOpts(4))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put([]byte("pre"), []byte("kept")); err != nil {
		t.Fatal(err)
	}
	b, want := spanningBatch(t, s, 12)

	// Capture at two points: right after the durable prepare (NO shard has
	// applied), and after the first shard's apply (partial).
	var atPrepare, atPartial [][]byte
	s.coord.testAfterPrepare = func() { atPrepare = captureAll(s, pmem.DropAll) }
	applies := 0
	s.coord.testAfterApply = func(int) {
		if applies == 0 {
			atPartial = captureAll(s, pmem.DropAll)
		}
		applies++
	}
	if err := s.Write(b); err != nil {
		t.Fatal(err)
	}
	if atPrepare == nil || atPartial == nil {
		t.Fatal("test hooks did not fire")
	}
	if applies < 2 {
		t.Fatalf("batch applied to %d shard(s); want >= 2", applies)
	}
	// The inspector decodes the staged batch with recovery's own decoder.
	rep := InspectCoordImage(atPrepare[len(atPrepare)-1])
	if !rep.InDoubt || rep.PayloadError != "" || rep.PayloadOps != len(want) {
		t.Fatalf("prepare-point coordinator image: %+v, want batch in doubt with %d staged ops", rep, len(want))
	}
	perShard := map[int]int{}
	for k := range want {
		perShard[s.ShardFor([]byte(k))]++
	}
	for sh, n := range perShard {
		if rep.OpsPerShard[sh] != n {
			t.Fatalf("inspector counts %d op(s) for shard %d, want %d: %+v", rep.OpsPerShard[sh], sh, n, rep.OpsPerShard)
		}
	}
	// A payload length past the end of the log is reported, whatever its size.
	bad := append([]byte(nil), atPrepare[len(atPrepare)-1]...)
	binary.LittleEndian.PutUint64(bad[cOffPayLen:], 1<<63-cPayloadBase/2)
	if rep := InspectCoordImage(bad); !strings.Contains(rep.PayloadError, "out of bounds") {
		t.Fatalf("oversized payload length: PayloadError %q, want out of bounds", rep.PayloadError)
	}

	for name, imgs := range map[string][][]byte{"at-prepare": atPrepare, "partial-apply": atPartial} {
		rs := reopenImages(t, imgs, testOpts(4))
		checkAllPresent(t, rs, want, name)
		if got, _ := rs.Get([]byte("pre")); string(got) != "kept" {
			t.Fatalf("%s: pre-existing key lost: %q", name, got)
		}
		st := rs.Stats()
		if st.XReplays != 1 || st.XRollback != 0 {
			t.Fatalf("%s: recovery counters: %+v", name, st)
		}
		checkNoViolations(t, rs, name)
		// Replay retired the record: a fresh reopen finds nothing in doubt,
		// and new cross-shard traffic gets a fresh id.
		imgs2 := captureAll(rs, pmem.DropAll)
		rs2 := reopenImages(t, imgs2, testOpts(4))
		if st := rs2.Stats(); st.XReplays != 0 || st.XRollback != 0 {
			t.Fatalf("%s: second recovery resolved something: %+v", name, st)
		}
		b2, want2 := spanningBatch(t, rs2, 6)
		if err := rs2.Write(b2); err != nil {
			t.Fatalf("%s: post-recovery batch: %v", name, err)
		}
		checkAllPresent(t, rs2, want2, name+" post-recovery batch")
	}
	s.Close()
}

// TestCrossShardRollbackAfterCrash is the deterministic presumed-abort
// proof: images are captured with the prepared state word STORED but not
// yet flushed, under DropAll — the crash erases the flip, leaving staged
// meta and payload with a free state word. No shard ever saw the batch
// (applies gate on the flip's psync), so recovery must discard the record
// and the batch must be fully invisible.
func TestCrossShardRollbackAfterCrash(t *testing.T) {
	s, err := Open(testOpts(4))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put([]byte("pre"), []byte("kept")); err != nil {
		t.Fatal(err)
	}
	b, want := spanningBatch(t, s, 12)

	var atFlip [][]byte
	s.coord.testAfterStateStore = func() { atFlip = captureAll(s, pmem.DropAll) }
	if err := s.Write(b); err != nil {
		t.Fatal(err)
	}
	if atFlip == nil {
		t.Fatal("test hook did not fire")
	}
	coordImg := atFlip[len(atFlip)-1]
	if InspectCoordImage(coordImg).InDoubt {
		t.Fatal("unflushed prepare flip leaked into the DropAll image")
	}
	// The staged meta IS durable (it was fenced before the flip): recovery
	// sees the abandoned attempt and counts the rollback.
	if got := binary.LittleEndian.Uint64(coordImg[cOffBatchID:]); got != 1 {
		t.Fatalf("staged meta id = %d, want 1", got)
	}

	rs := reopenImages(t, atFlip, testOpts(4))
	checkAllAbsent(t, rs, want, "after rollback")
	if got, _ := rs.Get([]byte("pre")); string(got) != "kept" {
		t.Fatalf("pre-existing key lost in rollback: %q", got)
	}
	st := rs.Stats()
	if st.XRollback != 1 || st.XReplays != 0 {
		t.Fatalf("recovery counters: %+v", st)
	}
	checkNoViolations(t, rs, "rollback recovery")

	// The discarded id is not reused in a way that confuses replay: the
	// store accepts new cross-shard batches and they commit cleanly.
	b2, want2 := spanningBatch(t, rs, 8)
	if err := rs.Write(b2); err != nil {
		t.Fatal(err)
	}
	checkAllPresent(t, rs, want2, "post-rollback batch")
	s.Close()
}

// TestCoordinatorGarbageStateWord pins the defensive arm: a corrupted state
// tag (outside the crash model — transitions are atomic word stores) is
// presumed aborted, repaired durably, and the store stays usable with ids
// that never collide with applied watermarks.
func TestCoordinatorGarbageStateWord(t *testing.T) {
	s, err := Open(testOpts(2))
	if err != nil {
		t.Fatal(err)
	}
	b, want := spanningBatch(t, s, 8)
	if err := s.Write(b); err != nil {
		t.Fatal(err)
	}
	imgs := captureAll(s, pmem.DropAll)
	s.Close()

	// Scribble a garbage tag over the coordinator's state word.
	binary.LittleEndian.PutUint64(imgs[len(imgs)-1][cOffState:], 0xDEAD<<48|7)

	rs := reopenImages(t, imgs, testOpts(2))
	if st := rs.Stats(); st.XRollback != 1 {
		t.Fatalf("garbage state word not counted as rollback: %+v", st)
	}
	checkAllPresent(t, rs, want, "committed data after repair")
	// New batches must get ids above every applied watermark (the committed
	// batch advanced watermarks to 1), or replay idempotency would break.
	if rs.coord.lastID < 1 {
		t.Fatalf("repaired lastID = %d, below applied watermark", rs.coord.lastID)
	}
	b2, want2 := spanningBatch(t, rs, 6)
	if err := rs.Write(b2); err != nil {
		t.Fatal(err)
	}
	checkAllPresent(t, rs, want2, "post-repair batch")
}

// TestCoordinatorCorruptRecordRejected pins that recovery refuses to guess
// at a prepared record that fails validation — corruption of fenced bytes
// is not a crash artifact.
func TestCoordinatorCorruptRecordRejected(t *testing.T) {
	s, err := Open(testOpts(2))
	if err != nil {
		t.Fatal(err)
	}
	b, _ := spanningBatch(t, s, 8)
	var atPrepare [][]byte
	s.coord.testAfterPrepare = func() { atPrepare = captureAll(s, pmem.DropAll) }
	if err := s.Write(b); err != nil {
		t.Fatal(err)
	}
	s.Close()

	// Flip a payload byte: the checksum must catch it.
	corrupt := make([][]byte, len(atPrepare))
	copy(corrupt, atPrepare)
	ci := append([]byte(nil), atPrepare[len(atPrepare)-1]...)
	ci[cPayloadBase+5] ^= 0xFF
	corrupt[len(corrupt)-1] = ci
	devs := make([]*pmem.Device, len(corrupt))
	for i, img := range corrupt {
		devs[i] = pmem.FromImage(img, pmem.ModelDRAM)
	}
	if _, err := Reopen(devs, testOpts(2)); err == nil {
		t.Fatal("Reopen accepted a corrupt prepared record")
	}

	// Header corruption is equally fatal.
	hi := append([]byte(nil), atPrepare[len(atPrepare)-1]...)
	binary.LittleEndian.PutUint64(hi[cOffHeadSum:], 12345)
	corrupt[len(corrupt)-1] = hi
	for i, img := range corrupt {
		devs[i] = pmem.FromImage(img, pmem.ModelDRAM)
	}
	if _, err := Reopen(devs, testOpts(2)); err == nil {
		t.Fatal("Reopen accepted a corrupt header")
	}
}

// TestCrossShardCrashDuringRecovery drives the crash-chain: starting from a
// durable-prepare image set, recovery itself is crashed at sampled event
// points (multi-device captures) and recovered again. Whatever the depth,
// the batch must come out fully visible — a durable prepare means commit.
func TestCrossShardCrashDuringRecovery(t *testing.T) {
	s, err := Open(testOpts(3))
	if err != nil {
		t.Fatal(err)
	}
	b, want := spanningBatch(t, s, 9)
	var atPartial [][]byte
	applies := 0
	s.coord.testAfterApply = func(int) {
		if applies == 0 {
			atPartial = captureAll(s, pmem.DropAll)
		}
		applies++
	}
	if err := s.Write(b); err != nil {
		t.Fatal(err)
	}
	s.Close()
	if atPartial == nil {
		t.Fatal("capture hook did not fire")
	}

	mkDevs := func(imgs [][]byte) []*pmem.Device {
		devs := make([]*pmem.Device, len(imgs))
		for i, img := range imgs {
			devs[i] = pmem.FromImage(img, pmem.ModelDRAM)
		}
		return devs
	}

	// Scheduler-driven runs reopen WITHOUT store auditors: Options.Audit
	// attaches auditor hooks as each device's sole bundle, which would
	// displace the scheduler's counting hooks. The final clean recovery of
	// each captured image set runs fully audited.
	schedOpts := testOpts(3)
	schedOpts.Audit = false

	// Dry run: count recovery's total event footprint.
	devs := mkDevs(atPartial)
	ms := pmem.NewScheduler(devs...)
	if _, err := Reopen(devs, schedOpts); err != nil {
		t.Fatalf("dry-run Reopen: %v", err)
	}
	total := ms.Events()
	ms.Detach()
	if total == 0 {
		t.Fatal("recovery generated no events")
	}

	// Sample ~16 crash points across the recovery, including the first and
	// last events. Each capture feeds a final clean recovery.
	step := total / 16
	if step == 0 {
		step = 1
	}
	tested := 0
	for ev := uint64(1); ev <= total; ev += step {
		devs := mkDevs(atPartial)
		ms := pmem.NewScheduler(devs...)
		ms.Arm(ev, pmem.DropAll)
		if _, err := Reopen(devs, schedOpts); err != nil {
			t.Fatalf("event %d: Reopen under scheduler: %v", ev, err)
		}
		imgs, at := ms.Images()
		ms.Detach()
		if imgs == nil {
			t.Fatalf("event %d: capture did not fire (total %d)", ev, total)
		}
		rs := reopenImages(t, imgs, testOpts(3))
		checkAllPresent(t, rs, want, fmt.Sprintf("crash@%d", at))
		checkNoViolations(t, rs, fmt.Sprintf("crash@%d", at))
		tested++
	}
	if tested < 2 {
		t.Fatalf("chain sampled only %d crash points", tested)
	}
}

// TestStoreDirRoundTrip pins the file-backed lifecycle: Close writes one
// image per shard plus the coordinator, Open reloads them, and a mismatched
// shard count is refused instead of silently mis-routing keys.
func TestStoreDirRoundTrip(t *testing.T) {
	dir := t.TempDir()
	opts := testOpts(3)
	opts.Dir = dir
	s, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	b, want := spanningBatch(t, s, 9)
	if err := s.Write(b); err != nil {
		t.Fatal(err)
	}
	if err := s.Put([]byte("solo"), []byte("1")); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	checkAllPresent(t, s2, want, "after reload")
	if got, _ := s2.Get([]byte("solo")); string(got) != "1" {
		t.Fatalf("solo = %q", got)
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}

	// The image files govern the shard count on reload: a stale -shards
	// flag (the store may have grown via an online split) is ignored, and
	// the durable placement map keeps routing identical.
	stale := opts
	stale.Shards = 2
	s3, err := Open(stale)
	if err != nil {
		t.Fatal(err)
	}
	if got := s3.NumShards(); got != 3 {
		t.Fatalf("reload with stale shard count: NumShards = %d, want 3", got)
	}
	checkAllPresent(t, s3, want, "after stale-count reload")
	if err := s3.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestRecoveryGauges pins the ptm_recovery_* export: reopening images taken
// in the middle of a Put reports the pending recovery and a repair sized by the
// damage (a few lines), while every shard's prefix was still compared.
func TestRecoveryGauges(t *testing.T) {
	st, err := Open(testOpts(2))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		if err := st.Put([]byte(fmt.Sprintf("k%02d", i)), bytes.Repeat([]byte{byte(i)}, 128)); err != nil {
			t.Fatal(err)
		}
	}
	key := []byte("k00")
	var imgs [][]byte
	dev := st.Devices()[st.ShardFor(key)]
	dev.SetHooks(&pmem.Hooks{Pwb: func(uint64) {
		if imgs == nil {
			imgs = captureAll(st, pmem.DropAll)
		}
	}})
	if err := st.Put(key, bytes.Repeat([]byte{0xFF}, 128)); err != nil {
		t.Fatal(err)
	}
	dev.SetHooks(nil)

	re := reopenImages(t, imgs, testOpts(2))
	g := re.Registry().Snapshot().Counters
	// The interrupted shard was found in MUT; the other at most in CPY (a
	// commit's closing idle marker is never written back) with nothing to do.
	if n := g["ptm_recovery_pending"]; n < 1 || n > 2 {
		t.Errorf("ptm_recovery_pending = %d, want 1 or 2", n)
	}
	wm := uint64(re.Engine(0).Watermark() + re.Engine(1).Watermark())
	if g["ptm_recovery_compared_bytes"] != wm {
		t.Errorf("ptm_recovery_compared_bytes = %d, want both watermarks = %d", g["ptm_recovery_compared_bytes"], wm)
	}
	if g["ptm_recovery_lines"] > 16 || g["ptm_recovery_extents"] > g["ptm_recovery_lines"] || g["ptm_recovery_ns"] == 0 {
		t.Errorf("recovery gauges %d lines / %d extents / %d ns: not proportional to one interrupted Put",
			g["ptm_recovery_lines"], g["ptm_recovery_extents"], g["ptm_recovery_ns"])
	}
	// The space gauges are summed over the shards the same way.
	devs := re.Devices()
	if want := uint64(devs[0].Size() + devs[1].Size()); g["pmem_image_bytes"] != want {
		t.Errorf("pmem_image_bytes = %d, want both shard images = %d", g["pmem_image_bytes"], want)
	}
	if _, ok := g["pmem_pending_lines"]; !ok {
		t.Error("pmem_pending_lines not published")
	}
}
