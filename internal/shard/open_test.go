package shard

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/pmem"
)

// checkShardAudited asserts shard i's store-owned auditor saw the shard's
// bring-up: at least the format's and the map creation's durable points,
// and no violation.
func checkShardAudited(t *testing.T, s *Store, i int, ctx string) {
	t.Helper()
	a := s.Auditors()[i]
	if a == nil {
		t.Fatalf("%s: shard %d has no auditor", ctx, i)
	}
	if tot := a.Totals(); tot.DurableChecks < 2 || tot.Violations != 0 {
		t.Fatalf("%s: shard %d auditor saw %d durable checks and %d violations, want >= 2 and 0",
			ctx, i, tot.DurableChecks, tot.Violations)
	}
}

// A fresh Open audits every shard from its format on: the auditor attaches
// before the device is formatted and the map is created.
func TestOpenAuditsShardFormat(t *testing.T) {
	opts := testOpts(3)
	opts.Blackbox = true
	s, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < s.NumShards(); i++ {
		checkShardAudited(t, s, i, "after Open")
	}
	checkNoViolations(t, s, "after Open")
}

// AddShard brings its shard up audited, like Open's.
func TestAddShardAuditsShardFormat(t *testing.T) {
	opts := testOpts(2)
	opts.Blackbox = true
	s, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	i, err := s.AddShard()
	if err != nil {
		t.Fatal(err)
	}
	checkShardAudited(t, s, i, "after AddShard")
	checkNoViolations(t, s, "after AddShard")
}

// Scrub re-formats its shard audited, like Open's.
func TestScrubAuditsShardFormat(t *testing.T) {
	opts := testOpts(2)
	opts.Blackbox = true
	s, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.quarantine(1, errors.New("test fault"))
	if err := s.Scrub(1); err != nil {
		t.Fatal(err)
	}
	checkShardAudited(t, s, 1, "after Scrub")
	checkNoViolations(t, s, "after Scrub")
}

// Reopen of a filled store runs no update transaction on any shard — the
// map is attached, not re-created — and every key reads back.
func TestReopenRunsNoUpdateTx(t *testing.T) {
	opts := testOpts(3)
	opts.Blackbox = true
	s, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	for i := 0; i < 200; i++ {
		k, v := fmt.Sprintf("k-%03d", i), fmt.Sprintf("v-%03d", i)
		if err := s.Put([]byte(k), []byte(v)); err != nil {
			t.Fatal(err)
		}
		want[k] = v
	}
	var devs []*pmem.Device
	for _, d := range s.Devices() {
		devs = append(devs, pmem.FromImage(d.Persisted(), pmem.ModelDRAM))
	}
	s.Close()

	r, err := Reopen(devs, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for i := 0; i < r.NumShards(); i++ {
		if n := r.Engine(i).Stats().UpdateTxs; n != 0 {
			t.Fatalf("shard %d ran %d update transactions during Reopen, want 0", i, n)
		}
	}
	checkAllPresent(t, r, want, "after Reopen")
	checkNoViolations(t, r, "after Reopen")
}
