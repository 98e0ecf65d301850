package crashtest

import "testing"

// TestGroupCampaignSmall runs the network group-commit campaign across all
// three core variants: crashes land inside cross-connection batches and
// recovery must keep every acknowledged write and never split a batch.
func TestGroupCampaignSmall(t *testing.T) {
	reports, err := Run(Config{Scenario: "group", Rounds: 20, Seed: 1, Workers: 6, ChainDepth: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != len(EngineNames("group")) {
		t.Fatalf("got %d reports, want %d", len(reports), len(EngineNames("group")))
	}
	for _, r := range reports {
		if r.Rounds != 20 {
			t.Errorf("%s: %d rounds completed, want 20", r.Engine, r.Rounds)
		}
		if r.Count("multiconn_batch") == 0 {
			t.Errorf("%s: no batch merged ops from more than one connection; campaign never exercised cross-connection group commit", r.Engine)
		}
		if r.Count("mid_round") == 0 {
			t.Errorf("%s: no crash landed inside the workload", r.Engine)
		}
		if r.Count("ack_survived") == 0 || r.Count("ack_lost") == 0 {
			t.Errorf("%s: want acks on both sides of the crash line, got %d survived / %d lost",
				r.Engine, r.Count("ack_survived"), r.Count("ack_lost"))
		}
		t.Logf("%s: %+v", r.Engine, r)
	}
}

// TestGroupCampaignAudited chains the durability auditor in front of the
// crash scheduler: group-committed rounds must uphold the fence protocol
// exactly like solo ones.
func TestGroupCampaignAudited(t *testing.T) {
	reports, err := Run(Config{Scenario: "group", Rounds: 8, Seed: 5, Workers: 6, Audit: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range reports {
		if r.AuditViolations != 0 {
			t.Errorf("%s: %d audit violations, want 0", r.Engine, r.AuditViolations)
		}
	}
}

func TestGroupCampaignUnknownEngine(t *testing.T) {
	wantUnknownEngine(t, "group", "undolog")
}
