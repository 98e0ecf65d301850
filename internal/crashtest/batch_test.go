package crashtest

import (
	"reflect"
	"testing"
)

// TestBatchCampaignSmall runs the combined-batch campaign across all three
// core variants with concurrent writers: crashes land inside batched
// durability rounds and recovery must expose an all-or-nothing prefix of
// them.
func TestBatchCampaignSmall(t *testing.T) {
	reports, err := Run(Config{Scenario: "batch", Rounds: 20, Seed: 1, Workers: 4, ChainDepth: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != len(EngineNames("batch")) {
		t.Fatalf("got %d reports, want %d", len(reports), len(EngineNames("batch")))
	}
	for _, r := range reports {
		if r.Rounds != 20 {
			t.Errorf("%s: %d rounds completed, want 20", r.Engine, r.Rounds)
		}
		if r.Count("multi_op_round") == 0 {
			t.Errorf("%s: no round committed a multi-op batch; campaign never exercised combined commits", r.Engine)
		}
		if r.Count("mid_batch") == 0 {
			t.Errorf("%s: no crash landed inside the workload", r.Engine)
		}
		if r.Count("op_survived") == 0 || r.Count("op_lost") == 0 {
			t.Errorf("%s: want both survived and lost ops, got %d/%d",
				r.Engine, r.Count("op_survived"), r.Count("op_lost"))
		}
		t.Logf("%s: %+v", r.Engine, r)
	}
}

// TestBatchCampaignAudited chains the durability auditor onto every device:
// batched commits must uphold the fence protocol exactly like solo ones.
func TestBatchCampaignAudited(t *testing.T) {
	reports, err := Run(Config{Scenario: "batch", Rounds: 8, Seed: 5, Workers: 4, Audit: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range reports {
		if r.AuditViolations != 0 {
			t.Errorf("%s: %d audit violations, want 0", r.Engine, r.AuditViolations)
		}
	}
}

// TestBatchCampaignDeterministic: a single-threaded campaign is a pure
// function of its seed.
func TestBatchCampaignDeterministic(t *testing.T) {
	cfg := Config{Scenario: "batch", Rounds: 10, Seed: 42, Workers: 1, ChainDepth: 2, Engines: []string{"romlog"}}
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

func TestBatchCampaignUnknownEngine(t *testing.T) {
	wantUnknownEngine(t, "batch", "undolog")
}
