package crashtest

import (
	"reflect"
	"testing"
)

// TestReplicateCampaignSmall runs the mid-replicate campaign across all four
// replication strategies with concurrent sparse-store writers: crashes are
// armed just past commit durable points and recovery must expose each
// worker's lanes exactly as a replay of its surviving operation prefix.
func TestReplicateCampaignSmall(t *testing.T) {
	reports, err := Run(Config{Scenario: "replicate", Rounds: 25, Seed: 1, Workers: 2, ChainDepth: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != len(EngineNames("replicate")) {
		t.Fatalf("got %d reports, want %d", len(reports), len(EngineNames("replicate")))
	}
	for _, r := range reports {
		if r.Rounds != 25 {
			t.Errorf("%s: %d rounds completed, want 25", r.Engine, r.Rounds)
		}
		if r.Count("mid_round") == 0 {
			t.Errorf("%s: no crash landed inside the workload", r.Engine)
		}
		if r.Count("mid_replicate") == 0 {
			t.Errorf("%s: no crash landed inside replication (state CPY); the armer never hit its window", r.Engine)
		}
		t.Logf("%s: %+v", r.Engine, r)
	}
}

// TestReplicateCampaignAudited chains the durability auditor onto every
// device: dirty-range replication must uphold the fence protocol under crash
// pressure exactly like the full copy.
func TestReplicateCampaignAudited(t *testing.T) {
	reports, err := Run(Config{Scenario: "replicate", Rounds: 10, Seed: 5, Workers: 2, Audit: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range reports {
		if r.AuditViolations != 0 {
			t.Errorf("%s: %d audit violations, want 0", r.Engine, r.AuditViolations)
		}
	}
}

// TestReplicateCampaignDeterministic: a single-threaded campaign is a pure
// function of its seed.
func TestReplicateCampaignDeterministic(t *testing.T) {
	cfg := Config{Scenario: "replicate", Rounds: 12, Seed: 42, Workers: 1, ChainDepth: 2, Engines: []string{"rom"}}
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed, different reports:\n%+v\n%+v", a, b)
	}
}

func TestReplicateCampaignUnknownEngine(t *testing.T) {
	wantUnknownEngine(t, "replicate", "undolog")
}
