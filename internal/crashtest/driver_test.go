package crashtest

import (
	"encoding/json"
	"flag"
	"os"
	"reflect"
	"strings"
	"testing"

	"repro/internal/obs"
)

// runOne runs a scenario whose system is fixed and returns its one report.
func runOne(cfg Config) (Report, error) {
	reps, err := Run(cfg)
	if len(reps) == 0 {
		return Report{}, err
	}
	return reps[0], err
}

func wantUnknownEngine(t *testing.T, scenario, engine string) {
	t.Helper()
	_, err := Run(Config{Scenario: scenario, Rounds: 1, Engines: []string{engine}})
	if err == nil || !strings.Contains(err.Error(), "unknown engine") || !strings.Contains(err.Error(), scenario) {
		t.Fatalf("err = %v, want an unknown-engine error naming scenario %s", err, scenario)
	}
}

var update = flag.Bool("update", false, "rewrite testdata/census.json from this tree instead of comparing against it")

// goldenScenario is one scenario's entry in testdata/census.json: per subject
// the pinned census counters, plus the pinned registry totals.
type goldenScenario struct {
	Reports []goldenReport    `json:"reports"`
	Metrics map[string]uint64 `json:"metrics,omitempty"`
}

type goldenReport struct {
	Engine string            `json:"engine"`
	Rounds int               `json:"rounds"`
	Census map[string]uint64 `json:"census"`
}

// censusConfigs are the campaigns TestCensusGolden replays: one worker, seed
// 1, audited, chained — the settings under which a campaign is a pure
// function of its seed.
var censusConfigs = []Config{
	{Scenario: "crash", Rounds: 24, ChainDepth: 3, Workers: 1},
	{Scenario: "rounds", Rounds: 25, ChainDepth: 2, Workers: 1},
	{Scenario: "xshard", Rounds: 25, ChainDepth: 2, Shards: 3},
	{Scenario: "faults", Rounds: 10},
	{Scenario: "migrate", Rounds: 16, ChainDepth: 2},
}

// TestCensusGolden pins what a seed means. testdata/census.json was generated
// at the commit BEFORE the seven per-campaign drivers were merged into one
// (through their own Run* entry points, plus the recopyDirty ordering fix that
// makes a migrate seed replay at all); every counter and device total in it
// must come out identical from the merged driver, or a recorded Failure no
// longer replays. Only what the file holds is compared. The rounds entry was
// added when the batch, replicate and group scenarios became one; at one
// worker its group subjects form their batches deterministically too, so it
// pins every counter and the device totals.
//
// A change that deliberately alters a campaign (a new draw from the round's
// rng, an engine issuing different persistence events) regenerates the file
// with -update, which keeps the same pinned keys.
func TestCensusGolden(t *testing.T) {
	const path = "testdata/census.json"
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	golden := map[string]goldenScenario{}
	if err := json.Unmarshal(raw, &golden); err != nil {
		t.Fatal(err)
	}
	for _, cfg := range censusConfigs {
		want, ok := golden[cfg.Scenario]
		if !ok {
			t.Errorf("%s: no golden entry", cfg.Scenario)
			continue
		}
		cfg.Seed, cfg.Audit, cfg.Metrics = 1, true, obs.NewRegistry()
		reports, err := Run(cfg)
		if err != nil {
			t.Errorf("%s: %v", cfg.Scenario, err)
			continue
		}
		if len(reports) != len(want.Reports) {
			t.Errorf("%s: %d reports, golden has %d", cfg.Scenario, len(reports), len(want.Reports))
			continue
		}
		got := goldenScenario{}
		for i, rep := range reports {
			g := goldenReport{Engine: rep.Engine, Rounds: rep.Rounds, Census: map[string]uint64{}}
			for name := range want.Reports[i].Census {
				g.Census[name] = rep.Count(name)
			}
			got.Reports = append(got.Reports, g)
		}
		counters := cfg.Metrics.Snapshot().Counters
		for name := range want.Metrics {
			if got.Metrics == nil {
				got.Metrics = map[string]uint64{}
			}
			got.Metrics[name] = counters[name]
		}
		if *update {
			golden[cfg.Scenario] = got
		} else if !reflect.DeepEqual(got, want) {
			g, _ := json.MarshalIndent(got, "", "  ")
			w, _ := json.MarshalIndent(want, "", "  ")
			t.Errorf("%s: census diverged from %s\ngot:  %s\nwant: %s", cfg.Scenario, path, g, w)
		}
	}
	if *update {
		out, err := json.MarshalIndent(golden, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(out, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestConfigRejectsUnusedFields: a sizing field or engine list the chosen
// scenario cannot consume is an error naming the scenario, never a silent
// no-op.
func TestConfigRejectsUnusedFields(t *testing.T) {
	for _, tc := range []struct {
		cfg   Config
		field string
	}{
		{Config{Scenario: "crash", Shards: 3}, "Shards"},
		{Config{Scenario: "rounds", Keys: 64}, "Keys"},
		{Config{Scenario: "rounds", Shards: 1}, "Shards"},
		{Config{Scenario: "xshard", Engines: []string{"rom"}}, "Engines"},
		{Config{Scenario: "xshard", Workers: 4}, "Workers"},
		{Config{Scenario: "migrate", Engines: []string{"all"}}, "Engines"},
		{Config{Scenario: "migrate", Workers: 2}, "Workers"},
		{Config{Scenario: "faults", ChainDepth: 2}, "ChainDepth"},
		{Config{Scenario: "faults", Workers: 2}, "Workers"},
		{Config{Scenario: "faults", Shards: 2}, "Shards"},
	} {
		tc.cfg.Rounds = 1
		_, err := Run(tc.cfg)
		if err == nil || !strings.Contains(err.Error(), tc.field) || !strings.Contains(err.Error(), tc.cfg.Scenario) {
			t.Errorf("%s with %s set: err = %v, want a refusal naming both", tc.cfg.Scenario, tc.field, err)
		}
	}
	if _, err := Run(Config{Scenario: "nope", Rounds: 1}); err == nil || !strings.Contains(err.Error(), "unknown scenario") {
		t.Errorf("unknown scenario: err = %v", err)
	}
}

// TestEveryScenarioHonoursMetricsTraceAudit: the driver owns the registry
// and the audit census, so every scenario fills them.
func TestEveryScenarioHonoursMetricsTraceAudit(t *testing.T) {
	for _, sc := range scenarios {
		reg := obs.NewRegistry()
		cfg := Config{Scenario: sc.name, Rounds: 2, Seed: 3, Audit: true, Metrics: reg}
		if !sc.fixed() {
			cfg.Engines = sc.subjects[:1]
		}
		reports, err := Run(cfg)
		if err != nil {
			t.Errorf("%s: %v", sc.name, err)
			continue
		}
		counters := reg.Snapshot().Counters
		if got := counters[sc.metric+"rounds_total"]; got != 2 {
			t.Errorf("%s: %srounds_total = %d, want 2", sc.name, sc.metric, got)
		}
		for _, c := range reports[0].Census {
			if got := counters[sc.metric+c.Name+"_total"]; got != c.N {
				t.Errorf("%s: %s%s_total = %d, census says %d", sc.name, sc.metric, c.Name, got, c.N)
			}
		}
		if counters["pmem_fence_total"] == 0 {
			t.Errorf("%s: no device totals accumulated", sc.name)
		}
		if counters["audit_durable_check_total"] == 0 {
			t.Errorf("%s: no auditor totals accumulated", sc.name)
		}
	}
}
