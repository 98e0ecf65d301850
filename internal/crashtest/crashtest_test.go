package crashtest

import (
	"reflect"
	"testing"

	"repro/internal/audit"
	"repro/internal/obs"
)

func TestCampaignSmall(t *testing.T) {
	reports, err := Run(Config{Rounds: 6, Seed: 1, ChainDepth: 2, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != len(EngineNames("crash")) {
		t.Fatalf("got %d reports, want %d", len(reports), len(EngineNames("crash")))
	}
	for _, r := range reports {
		if r.Rounds != 6 {
			t.Errorf("%s: %d rounds completed, want 6", r.Engine, r.Rounds)
		}
	}
}

// A campaign is a pure function of its seed when single-threaded.
func TestCampaignDeterministic(t *testing.T) {
	cfg := Config{Rounds: 20, Seed: 42, Workers: 1, ChainDepth: 3, Engines: []string{"rom", "undolog"}}
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

// A long-enough chain campaign must observe every interesting outcome:
// crashes inside the workload, crashes inside recovery of an image with
// pending work, and both rollback and carry-forward of workers' final
// transactions.
func TestCampaignHitsAllOutcomes(t *testing.T) {
	reports, err := Run(Config{Rounds: 60, Seed: 7, ChainDepth: 3, Workers: 2,
		Engines: []string{"romlog"}})
	if err != nil {
		t.Fatal(err)
	}
	r := reports[0]
	if r.Count("mid_tx") == 0 {
		t.Error("no crash landed inside the workload")
	}
	if r.Count("mid_tx") == uint64(r.Rounds) {
		t.Error("no crash landed at a quiescent point")
	}
	if r.Count("chain") == 0 {
		t.Error("no crash landed during reopen")
	}
	if r.Count("recovery_crash") == 0 {
		t.Error("no crash landed inside pending recovery work")
	}
	if r.Count("rolled_back") == 0 || r.Count("carried_forward") == 0 {
		t.Errorf("want both outcomes, got rolled_back=%d carried_forward=%d",
			r.Count("rolled_back"), r.Count("carried_forward"))
	}
	t.Logf("report: %+v", r)
}

// The concurrent workload path (multiple worker goroutines sharing one
// engine while the harness polls the scheduler) must be race-clean; this
// test exists mainly to run under -race.
func TestCampaignConcurrentWorkload(t *testing.T) {
	reports, err := Run(Config{Rounds: 8, Seed: 3, Workers: 4, ChainDepth: 2,
		Engines: []string{"romlr", "kvstore"}})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range reports {
		if r.Workers != 4 {
			t.Errorf("%s ran with %d workers, want 4", r.Engine, r.Workers)
		}
	}
}

// The redo-log STM commits from worker goroutines directly, which the
// simulated device's data path does not allow; the campaign must force it
// single-threaded.
func TestCampaignRedologSingleThreaded(t *testing.T) {
	reports, err := Run(Config{Rounds: 4, Seed: 9, Workers: 4, Engines: []string{"redolog"}})
	if err != nil {
		t.Fatal(err)
	}
	if reports[0].Workers != 1 {
		t.Errorf("redolog ran with %d workers, want 1", reports[0].Workers)
	}
}

func TestUnknownEngine(t *testing.T) {
	wantUnknownEngine(t, "crash", "nope")
}

// TestCampaignAudited runs every engine with the durability auditor chained
// in front of the crash scheduler. All engines implement the paper's fence
// protocols, so no round may surface a violation, and the commit markers
// every engine advances must register as durable checks.
func TestCampaignAudited(t *testing.T) {
	reg := obs.NewRegistry()
	reports, err := Run(Config{Rounds: 4, Seed: 5, Workers: 2, ChainDepth: 2,
		Engines: []string{"all"}, Audit: true, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range reports {
		if r.AuditViolations != 0 {
			t.Errorf("%s: %d audit violations, want 0", r.Engine, r.AuditViolations)
		}
	}
	if n := reg.Counter("audit_durable_check_total").Load(); n == 0 {
		t.Error("audit_durable_check_total = 0, want > 0 (commit markers were advanced)")
	}
	if n := reg.Counter("audit_violation_total").Load(); n != 0 {
		t.Errorf("audit_violation_total = %d, want 0", n)
	}
}

// Auditing must not perturb the campaign's crash decisions: the same seed
// with and without -audit must produce identical crash chains and recovery
// outcomes (the auditor only observes; persistence-event numbering is
// unchanged).
func TestCampaignAuditPreservesOutcomes(t *testing.T) {
	base, err := Run(Config{Rounds: 6, Seed: 11, Workers: 1, ChainDepth: 2, Engines: []string{"romlog"}})
	if err != nil {
		t.Fatal(err)
	}
	audited, err := Run(Config{Rounds: 6, Seed: 11, Workers: 1, ChainDepth: 2,
		Engines: []string{"romlog"}, Audit: true})
	if err != nil {
		t.Fatal(err)
	}
	a, b := base[0], audited[0]
	a.AuditViolations, a.AuditWaste = 0, audit.Waste{}
	b.AuditViolations, b.AuditWaste = 0, audit.Waste{}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("audited campaign diverged:\nbase:    %+v\naudited: %+v", a, b)
	}
}
