package crashtest

import (
	"reflect"
	"testing"

	"repro/internal/obs"
)

// TestXShardCampaign drives the cross-shard crash campaign: whole-process
// failures captured consistently across every shard device plus the
// coordinator log, crash chains landing inside multi-device recovery, and
// exact-prefix validation that makes any half-applied cross-shard batch a
// failure.
func TestXShardCampaign(t *testing.T) {
	rep, err := runOne(Config{Scenario: "xshard", Rounds: 40, Seed: 21, Shards: 3, ChainDepth: 2})
	if err != nil {
		t.Fatalf("campaign failed: %v", err)
	}
	if rep.Rounds != 40 {
		t.Fatalf("completed %d rounds, want 40", rep.Rounds)
	}
	if rep.count("xbatch") == 0 {
		t.Fatal("campaign committed no cross-shard batches")
	}
	if rep.count("mid_op") == 0 {
		t.Fatal("no crash interrupted a workload — arming window miscalibrated")
	}
	if rep.count("rolled_back")+rep.count("carried_forward") != uint64(rep.Rounds) {
		t.Fatalf("resolution counts %d+%d != rounds %d", rep.count("rolled_back"), rep.count("carried_forward"), rep.Rounds)
	}
	t.Logf("xshard: %+v", rep)
}

// TestXShardCampaignAudited chains durability auditors in front of the crash
// scheduler on every device; any PCSO violation in the two-phase protocol or
// the shard engines fails the campaign.
func TestXShardCampaignAudited(t *testing.T) {
	reg := obs.NewRegistry()
	rep, err := runOne(Config{Scenario: "xshard", Rounds: 25, Seed: 77, Shards: 3, ChainDepth: 2,
		Audit: true, Metrics: reg})
	if err != nil {
		t.Fatalf("audited campaign failed: %v", err)
	}
	if rep.AuditViolations != 0 {
		t.Fatalf("campaign recorded %d violations without failing", rep.AuditViolations)
	}
	snap := reg.Snapshot()
	if snap.Counters["xshard_crash_rounds_total"] != uint64(rep.Rounds) {
		t.Fatalf("metrics rounds = %d, want %d", snap.Counters["xshard_crash_rounds_total"], rep.Rounds)
	}
	if snap.Counters["pmem_fence_total"] == 0 {
		t.Fatal("campaign accumulated no device totals")
	}
	t.Logf("xshard audited: %+v", rep)
}

// TestXShardCampaignDeterministic pins reproducibility: same seed, same
// report (the workload is single-threaded by construction).
func TestXShardCampaignDeterministic(t *testing.T) {
	cfg := Config{Scenario: "xshard", Rounds: 12, Seed: 5, Shards: 2, ChainDepth: 3}
	a, err := runOne(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := runOne(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed diverged:\n  %+v\n  %+v", a, b)
	}
}
