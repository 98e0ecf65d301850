package crashtest

import (
	"reflect"
	"strings"
	"testing"
)

// The rounds scenario's subjects by who forms the durability round: the
// engine's flat combiner (batch) or the server's group committer (group).
var (
	batchSubjects = []string{"rom", "romlog", "romlr"}
	groupSubjects = []string{"group-romlog", "group-romlr"}
)

// runRounds runs a rounds campaign and checks that every subject finished
// every round and counted each of want at least once.
func runRounds(t *testing.T, cfg Config, want ...string) {
	t.Helper()
	cfg.Scenario = "rounds"
	reports, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	subjects := cfg.Engines
	if subjects == nil {
		subjects = EngineNames("rounds")
	}
	if len(reports) != len(subjects) {
		t.Fatalf("got %d reports, want %d", len(reports), len(subjects))
	}
	for _, r := range reports {
		if r.Rounds != cfg.Rounds {
			t.Errorf("%s: %d rounds completed, want %d", r.Engine, r.Rounds, cfg.Rounds)
		}
		for _, name := range want {
			if r.Count(name) == 0 {
				t.Errorf("%s: %s = 0; the campaign never exercised it", r.Engine, name)
			}
		}
		if cfg.Audit && r.AuditViolations != 0 {
			t.Errorf("%s: %d audit violations, want 0", r.Engine, r.AuditViolations)
		}
		t.Logf("%s: %+v", r.Engine, r)
	}
}

// wantDeterministic: a single-threaded campaign is a pure function of its
// seed.
func wantDeterministic(t *testing.T, engines ...string) {
	t.Helper()
	cfg := Config{Scenario: "rounds", Rounds: 12, Seed: 42, Workers: 1, ChainDepth: 2, Engines: engines}
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

// TestBatchCampaignSmall: concurrent writers on the engine subjects share
// combined durability rounds, crashes land inside them, and recovery exposes
// an all-or-nothing prefix of them.
func TestBatchCampaignSmall(t *testing.T) {
	runRounds(t, Config{Rounds: 25, Seed: 1, Workers: 4, ChainDepth: 2, Engines: batchSubjects},
		"multi_worker_round", "mid_round", "op_survived", "op_lost")
}

// TestBatchCampaignAudited chains the durability auditor onto every engine
// device: combined rounds must uphold the fence protocol exactly like solo
// ones.
func TestBatchCampaignAudited(t *testing.T) {
	runRounds(t, Config{Rounds: 8, Seed: 5, Workers: 4, Audit: true, Engines: batchSubjects})
}

func TestBatchCampaignDeterministic(t *testing.T) {
	wantDeterministic(t, "romlog", "group-romlog")
}

func TestBatchCampaignUnknownEngine(t *testing.T) {
	wantUnknownEngine(t, "rounds", "undolog")
}

// TestReplicateCampaignSmall: on every subject some crashes land inside the
// back copy (state CPY), after the round's durable point, and recovery still
// exposes each lane as the replay of its surviving prefix.
func TestReplicateCampaignSmall(t *testing.T) {
	runRounds(t, Config{Rounds: 25, Seed: 1, Workers: 2, ChainDepth: 2}, "mid_round", "mid_replicate")
}

// TestReplicateCampaignAudited: Algorithm 1's full copy and romlr's
// dirty-line copy uphold the fence protocol under crash pressure.
func TestReplicateCampaignAudited(t *testing.T) {
	runRounds(t, Config{Rounds: 10, Seed: 5, Workers: 2, Audit: true, Engines: []string{"rom", "romlr"}})
}

func TestReplicateCampaignDeterministic(t *testing.T) {
	wantDeterministic(t, "rom")
}

// TestReplicateCampaignUnknownEngine: rom is Algorithm 1 itself, so the
// separate full-copy subject is gone.
func TestReplicateCampaignUnknownEngine(t *testing.T) {
	wantUnknownEngine(t, "rounds", "rom-full")
}

// TestGroupCampaignSmall: connections pipelining into the server's group
// committer share rounds, acks fall on both sides of the crash line, and the
// recovered flight recorder holds records.
func TestGroupCampaignSmall(t *testing.T) {
	runRounds(t, Config{Rounds: 25, Seed: 1, Workers: 6, ChainDepth: 2, Engines: groupSubjects},
		"multi_worker_round", "mid_round", "op_survived", "op_lost", "flight_rounds")
}

// TestGroupCampaignAudited chains the durability auditor onto the shard
// device: group-committed rounds must uphold the fence protocol exactly like
// solo ones.
func TestGroupCampaignAudited(t *testing.T) {
	runRounds(t, Config{Rounds: 8, Seed: 5, Workers: 6, Audit: true, Engines: groupSubjects})
}

// TestGroupCampaignUnknownEngine: rom and romlog are one code path, so there
// is no group subject for rom.
func TestGroupCampaignUnknownEngine(t *testing.T) {
	wantUnknownEngine(t, "rounds", "group-rom")
}

// TestRoundsVerifyRejectsVacuous: from 25 rounds on, a subject whose census
// shows an assertion never exercised fails the campaign.
func TestRoundsVerifyRejectsVacuous(t *testing.T) {
	full := map[string]uint64{"mid_round": 1, "mid_replicate": 1, "multi_worker_round": 1,
		"op_survived": 1, "op_lost": 1, "flight_rounds": 1}
	report := func(engine string, workers, rounds int, zero string) *Report {
		rep := &Report{Scenario: "rounds", Engine: engine, Workers: workers, Rounds: rounds}
		for _, name := range roundsScenario.census {
			if name != zero {
				rep.Census = append(rep.Census, Counter{Name: name, N: full[name]})
			}
		}
		return rep
	}
	for _, tc := range []struct {
		engine  string
		workers int
		zero    string
	}{
		{"rom", 1, "mid_round"},
		{"romlr", 1, "mid_replicate"},
		{"romlog", 1, "op_survived"},
		{"group-romlog", 1, "op_lost"},
		{"romlog", 2, "multi_worker_round"},
		{"group-romlr", 1, "flight_rounds"},
	} {
		if err := roundsVerify(report(tc.engine, tc.workers, 25, tc.zero)); err == nil || !strings.Contains(err.Error(), tc.zero) {
			t.Errorf("%s at %d workers without %s: err = %v, want a refusal naming it", tc.engine, tc.workers, tc.zero, err)
		}
		if err := roundsVerify(report(tc.engine, tc.workers, 24, tc.zero)); err != nil {
			t.Errorf("%s: 24 rounds are too few to judge, got %v", tc.engine, err)
		}
	}
	if err := roundsVerify(report("romlog", 1, 25, "multi_worker_round")); err != nil {
		t.Errorf("one worker cannot share a round: %v", err)
	}
	if err := roundsVerify(report("romlog", 1, 25, "flight_rounds")); err != nil {
		t.Errorf("an engine subject has no flight recorder: %v", err)
	}
}
