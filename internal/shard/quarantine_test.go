package shard

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/kvstore"
	"repro/internal/pmem"
)

// keyOnShard finds a key (with the given prefix) that routes to shard want.
func keyOnShard(t *testing.T, s *Store, prefix string, want int) []byte {
	t.Helper()
	for i := 0; i < 10000; i++ {
		k := []byte(fmt.Sprintf("%s-%04d", prefix, i))
		if s.ShardFor(k) == want {
			return k
		}
	}
	t.Fatalf("no %s key routes to shard %d", prefix, want)
	return nil
}

// bigValue is a recognizable payload large enough to find in a device image
// and to fault interior lines of without touching allocator metadata.
func bigValue() []byte { return bytes.Repeat([]byte{0x7A}, 4096) }

// markValueBad locates val's persistent copy on dev and marks its interior
// lines (skipping one line at each edge, so node headers and allocator
// metadata on shared lines stay readable) as media-fault lines.
func markValueBad(t *testing.T, dev *pmem.Device, val []byte, transient bool) {
	t.Helper()
	img := dev.Persisted()
	off := bytes.Index(img, val)
	if off < 0 {
		t.Fatal("value payload not found in device image")
	}
	for o := off + pmem.LineSize; o < off+len(val)-pmem.LineSize; o += pmem.LineSize {
		dev.MarkBad(o, transient)
	}
}

// A transient media fault is retried and served; nothing is quarantined.
func TestTransientFaultRetried(t *testing.T) {
	opts := testOpts(4)
	s, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	key := keyOnShard(t, s, "victim", 1)
	if err := s.Put(key, bigValue()); err != nil {
		t.Fatal(err)
	}
	markValueBad(t, s.parts()[1].dev, bigValue(), true)

	got, err := s.Get(key)
	if err != nil {
		t.Fatalf("Get after transient fault: %v", err)
	}
	if !bytes.Equal(got, bigValue()) {
		t.Fatal("transient-fault retry served a corrupted value")
	}
	if q := s.Quarantined(); len(q) != 0 {
		t.Fatalf("transient fault quarantined shards %v", q)
	}
}

// A sticky media fault quarantines its shard: faulted keys answer with the
// typed UnavailError, healthy shards keep serving, and Scrub re-formats and
// readmits the partition (admitting the data loss).
func TestStickyFaultQuarantineAndScrub(t *testing.T) {
	opts := testOpts(4)
	s, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	const victim = 2
	vKey := keyOnShard(t, s, "victim", victim)
	if err := s.Put(vKey, bigValue()); err != nil {
		t.Fatal(err)
	}
	healthy := map[string]string{}
	for i := 0; i < 32; i++ {
		k := fmt.Sprintf("h-%03d", i)
		if s.ShardFor([]byte(k)) == victim {
			continue
		}
		healthy[k] = fmt.Sprintf("hv-%03d", i)
		if err := s.Put([]byte(k), []byte(healthy[k])); err != nil {
			t.Fatal(err)
		}
	}
	markValueBad(t, s.parts()[victim].dev, bigValue(), false)

	_, err = s.Get(vKey)
	var ue *UnavailError
	if !errors.As(err, &ue) || !errors.Is(err, ErrShardUnavailable) {
		t.Fatalf("Get on faulted shard: err = %v, want *UnavailError", err)
	}
	if ue.shard != victim || !strings.HasPrefix(err.Error(), fmt.Sprintf("UNAVAIL shard=%d", victim)) {
		t.Fatalf("UnavailError = %q, want UNAVAIL shard=%d prefix", err, victim)
	}
	if q := s.Quarantined(); len(q) != 1 || q[0] != victim {
		t.Fatalf("Quarantined() = %v, want [%d]", q, victim)
	}

	// Healthy shards are unaffected, reads and writes alike.
	checkAllPresent(t, s, healthy, "degraded mode")
	hk := keyOnShard(t, s, "post", (victim+1)%4)
	if err := s.Put(hk, []byte("post-v")); err != nil {
		t.Fatalf("Put on healthy shard during quarantine: %v", err)
	}

	// Writes routed to the faulted shard are refused with the typed error —
	// single keys and cross-shard batches involving it alike.
	if err := s.Put(vKey, []byte("nope")); !errors.Is(err, ErrShardUnavailable) {
		t.Fatalf("Put on faulted shard: err = %v, want ErrShardUnavailable", err)
	}
	xb := &kvstore.Batch{}
	xb.Put(vKey, []byte("x"))
	xb.Put(hk, []byte("x"))
	if err := s.Write(xb); !errors.Is(err, ErrShardUnavailable) {
		t.Fatalf("cross-shard Write involving faulted shard: err = %v, want ErrShardUnavailable", err)
	}

	// Scrub admits the loss and readmits the shard.
	if err := s.Scrub(victim); err != nil {
		t.Fatalf("Scrub: %v", err)
	}
	if q := s.Quarantined(); len(q) != 0 {
		t.Fatalf("Quarantined() after scrub = %v", q)
	}
	if _, err := s.Get(vKey); err != ErrNotFound {
		t.Fatalf("scrubbed shard should report old key lost (ErrNotFound), got %v", err)
	}
	if err := s.Put(vKey, []byte("fresh")); err != nil {
		t.Fatalf("Put on scrubbed shard: %v", err)
	}
	got, err := s.Get(vKey)
	if err != nil || string(got) != "fresh" {
		t.Fatalf("Get on scrubbed shard = %q, %v", got, err)
	}
	checkAllPresent(t, s, healthy, "after scrub")
	checkNoViolations(t, s, "quarantine+scrub")

	if err := s.Scrub(victim); err == nil {
		t.Fatal("Scrub of a healthy shard should be refused")
	}
}

// A Reopen over a damaged shard image quarantines that shard instead of
// failing the whole store; an in-doubt cross-shard batch is rolled forward
// onto the healthy shards immediately and onto the damaged shard at Scrub —
// no acknowledged write is lost or silently wrong, on any shard.
func TestReopenDegradedAndScrubRestoresInDoubtBatch(t *testing.T) {
	opts := testOpts(4)
	s, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}

	baseline := map[string]string{}
	for i := 0; i < 32; i++ {
		k, v := fmt.Sprintf("b-%03d", i), fmt.Sprintf("bv-%03d", i)
		baseline[k] = v
		if err := s.Put([]byte(k), []byte(v)); err != nil {
			t.Fatal(err)
		}
	}
	batch, batchWant := spanningBatch(t, s, 24)

	// Capture every device's media image at the moment the batch is durably
	// prepared on the coordinator but not yet applied to any shard.
	var imgs [][]byte
	s.coord.testAfterPrepare = func() {
		for _, d := range s.Devices() {
			imgs = append(imgs, d.Persisted())
		}
	}
	if err := s.Write(batch); err != nil {
		t.Fatal(err)
	}
	if imgs == nil {
		t.Fatal("prepare hook never fired")
	}

	// Pick a shard the batch involves and rot its captured header.
	victim := s.ShardFor([]byte("xk-000"))
	imgs[victim][8] ^= 0xFF // version word: header checksum now fails

	devs := make([]*pmem.Device, len(imgs))
	for i, img := range imgs {
		devs[i] = pmem.FromImage(img, pmem.ModelDRAM)
	}
	re, err := Reopen(devs, opts)
	if err != nil {
		t.Fatalf("degraded Reopen: %v", err)
	}
	if q := re.Quarantined(); len(q) != 1 || q[0] != victim {
		t.Fatalf("Quarantined() = %v, want [%d]", q, victim)
	}

	// Healthy shards serve their baseline AND their slice of the in-doubt
	// batch (rolled forward at open); the victim's keys answer UNAVAIL.
	for k, v := range batchWant {
		sh := re.ShardFor([]byte(k))
		got, err := re.Get([]byte(k))
		if sh == victim {
			if !errors.Is(err, ErrShardUnavailable) {
				t.Fatalf("victim key %s: err = %v, want ErrShardUnavailable", k, err)
			}
			continue
		}
		if err != nil || string(got) != v {
			t.Fatalf("healthy key %s = %q, %v; want %q (in-doubt batch rolled forward)", k, got, err, v)
		}
	}
	for k, v := range baseline {
		if re.ShardFor([]byte(k)) == victim {
			continue
		}
		got, err := re.Get([]byte(k))
		if err != nil || string(got) != v {
			t.Fatalf("baseline key %s = %q, %v; want %q", k, got, err, v)
		}
	}

	// The coordinator is wedged while the in-doubt batch has a quarantined
	// participant: further cross-shard commits are refused, healthy-only ones
	// included (the one prepared slot is occupied).
	wb, _ := spanningBatch(t, re, 24)
	if err := re.Write(wb); err == nil {
		t.Fatal("cross-shard Write should be refused while the coordinator is wedged")
	}

	// Scrub readmits the victim and finishes the roll-forward from the
	// coordinator log: the victim's slice of the acknowledged batch is
	// restored onto the fresh shard. Its baseline keys are lost — and
	// REPORTED lost (ErrNotFound after an admitted scrub), never served
	// wrong.
	if err := re.Scrub(victim); err != nil {
		t.Fatalf("Scrub: %v", err)
	}
	checkAllPresent(t, re, batchWant, "after scrub (in-doubt batch restored)")
	if err := re.Write(wb); err != nil {
		t.Fatalf("cross-shard Write after scrub un-wedged: %v", err)
	}
	st := re.Stats()
	if st.XReplays == 0 {
		t.Error("expected a coordinator replay to be counted")
	}
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}
}
