// Package crashtest is one crash-campaign driver and the five scenarios it
// runs. The idea under test is the paper's: a power failure at ANY
// persistence event — including inside recovery itself — leaves a state
// recovery can bring back to a consistent one that contains every
// acknowledged write.
//
// The driver (this file and round.go) owns everything the scenarios share:
// one Config, one Report with an ordered census of named counters, subject
// selection and per-subject seed streams, the round loop, Failure decoration,
// the crash scheduler with the durability auditor and forensic trigger
// chained around it, the crash chain (reopenChain: reopen each captured image
// set under a freshly armed scheduler, so the next crash lands inside
// recovery, as deep as Config.ChainDepth), device and auditor accounting,
// the audit verdict, and folding the census into a metrics registry.
//
// A scenario (one row of the scenarios table, one file) is only what is
// genuinely its own: build a system, run a workload with one armed crash,
// and validate what recovery brings back.
//
//	crash    six engines, concurrent map workload, per-worker prefix check
//	rounds   durability rounds, combined or group-committed, are all-or-nothing
//	         and prefix-ordered, crashes aimed into the back copy too
//	xshard   N shard devices + coordinator, two-phase batches all-or-nothing
//	migrate  an online shard split resolves to exactly one owner per key
//	faults   torn crash, bit rot and bad lines are reported, never served
//
// DESIGN.md ("Crash campaigns") tabulates, per scenario, the system built,
// where the crash is aimed, what validation proves, and the census counters.
//
// Violations surface as a structured Failure carrying everything needed to
// replay the round: scenario, campaign and round seeds, worker count, and
// the full crash chain (event indices and whether recovery work was
// pending). Campaigns are pure functions of the seed at one worker.
package crashtest

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math/rand"
	"slices"
	"strings"

	"repro/internal/audit"
	"repro/internal/obs"
)

// Config parameterizes a campaign. Workers, Ops, Keys, Shards and ChainDepth
// default per scenario when zero (see the scenarios table); setting one the
// chosen scenario does not consume is an error, not a silent no-op.
type Config struct {
	// Scenario names the campaign (ScenarioNames); empty means "crash".
	Scenario string
	// Rounds is the number of build/crash/recover cycles per subject.
	Rounds int
	// Seed makes campaigns reproducible (fully deterministic at one worker).
	Seed int64
	// Engines selects the scenario's subjects by name; empty or "all"
	// means every one.
	Engines []string
	// Workers is the number of concurrent workload goroutines (connections,
	// for the rounds scenario's group subjects). Engines whose commit path
	// cannot share the simulated device run with 1.
	Workers int
	// Ops bounds the operations (transactions, batched updates, acknowledged
	// writes) each worker completes before the crash.
	Ops int
	// Keys bounds the keyspace.
	Keys int
	// Shards is the partition count (before the split, for migrate).
	Shards int
	// ChainDepth is the maximum crashes per round: the first lands in the
	// workload, later ones inside recovery itself.
	ChainDepth int
	// Audit chains a durability auditor in front of the crash scheduler on
	// every device the campaign creates (workload devices and each reopened
	// crash image). Any durability violation — a dirty or unfenced line at a
	// commit-marker advance, a durably-claimed line lost at a crash, or one
	// still unflushed at engine close — fails the round.
	Audit bool
	// Metrics, when non-nil, accumulates campaign totals into the registry:
	// the pmem_* counters summed over every device the campaign creates, the
	// audit_* counters over every auditor, and the scenario's census under
	// its metric prefix. Devices are per-round, so the counters are
	// accumulated device by device, not sampled from a live one.
	Metrics *obs.Registry
}

// Counter is one named entry of a report's census.
type Counter struct {
	Name string `json:"name"`
	N    uint64 `json:"n"`
}

// Report summarizes one subject's campaign.
type Report struct {
	Scenario string `json:"scenario"`
	Engine   string `json:"engine"`
	Rounds   int    `json:"rounds"`
	// Workers is the worker count actually used.
	Workers int `json:"workers"`
	// Census holds the scenario's counters in its table order. Registry
	// metric names derive from it: prefix + name + "_total".
	Census []Counter `json:"census"`
	// AuditViolations counts durability violations detected by the auditor
	// (any nonzero count also fails the offending round); AuditWaste
	// aggregates its waste diagnostics. Both only with Config.Audit.
	AuditViolations uint64      `json:"audit_violations,omitempty"`
	AuditWaste      audit.Waste `json:"audit_waste"`
}

// count returns the census counter called name, or 0 if the scenario has
// none.
func (r *Report) count(name string) uint64 {
	for _, c := range r.Census {
		if c.Name == name {
			return c.N
		}
	}
	return 0
}

// add bumps census counter name, which the scenario's row must declare.
func (r *Report) add(name string, n uint64) {
	for i := range r.Census {
		if r.Census[i].Name == name {
			r.Census[i].N += n
			return
		}
	}
	panic(fmt.Sprintf("crashtest: scenario %s has no census counter %q", r.Scenario, name))
}

// CrashPoint records one injected failure of a round's crash chain.
type CrashPoint struct {
	// Event is the persistence-event index the image was captured at.
	Event uint64 `json:"event"`
	// DuringOpen is true for chain crashes injected while reopening.
	DuringOpen bool `json:"during_open"`
	// RecoveryPending is true when the image being reopened required real
	// recovery work.
	RecoveryPending bool `json:"recovery_pending"`
}

// Failure describes a safety violation with everything needed to reproduce
// it. It implements error.
type Failure struct {
	Scenario     string       `json:"scenario"`
	Engine       string       `json:"engine"`
	Round        int          `json:"round"`
	CampaignSeed int64        `json:"campaign_seed"`
	RoundSeed    int64        `json:"round_seed"`
	Threads      int          `json:"threads"`
	Chain        []CrashPoint `json:"chain"`
	Reason       string       `json:"reason"`
}

func (f *Failure) Error() string {
	b, err := json.Marshal(f)
	if err != nil {
		return fmt.Sprintf("crashtest failure: %s %s round %d: %s", f.Scenario, f.Engine, f.Round, f.Reason)
	}
	return "crashtest failure: " + string(b)
}

// scenario is one row of the campaign table.
type scenario struct {
	name string
	// defaults holds the scenario's value for each sizing field of Config;
	// zero marks a field the scenario does not consume.
	defaults Config
	// subjects lists what -engines selects from. A scenario whose system is
	// fixed has one subject, named after itself, and takes no Engines.
	subjects []string
	// salt + subject seeds the per-subject stream, so a campaign is
	// reproducible independently of which subjects are selected. The strings
	// predate the merged driver and must not change: a seed means the same
	// campaign.
	salt string
	// metric prefixes the registry counters folded from the census.
	metric string
	// census names the report counters, in print order. "chain" and
	// "recovery_crash" belong to reopenChain.
	census []string
	// workers, when set, clamps Config.Workers for one subject.
	workers func(cfg Config, subject string) int
	// round runs one build / crash / recover / validate cycle.
	round func(r *round) error
	// verify, when set, checks a completed campaign for vacuity.
	verify func(rep *Report) error
}

func (sc *scenario) fixed() bool { return len(sc.subjects) == 1 && sc.subjects[0] == sc.name }

var scenarios = []*scenario{
	crashScenario, roundsScenario, xshardScenario, migrateScenario, faultsScenario,
}

// ScenarioNames lists the campaigns in table order.
func ScenarioNames() []string {
	names := make([]string, len(scenarios))
	for i, sc := range scenarios {
		names[i] = sc.name
	}
	return names
}

func findScenario(name string) (*scenario, error) {
	if name == "" {
		name = crashScenario.name
	}
	for _, sc := range scenarios {
		if sc.name == name {
			return sc, nil
		}
	}
	return nil, fmt.Errorf("crashtest: unknown scenario %q (known: %s)", name, strings.Join(ScenarioNames(), ", "))
}

// resolve fills cfg's zero sizing fields from the scenario's row and rejects
// the ones the scenario cannot consume.
func (sc *scenario) resolve(cfg Config) (Config, error) {
	for _, f := range []struct {
		name string
		set  *int
		def  int
	}{
		{"Workers", &cfg.Workers, sc.defaults.Workers},
		{"Ops", &cfg.Ops, sc.defaults.Ops},
		{"Keys", &cfg.Keys, sc.defaults.Keys},
		{"Shards", &cfg.Shards, sc.defaults.Shards},
		{"ChainDepth", &cfg.ChainDepth, sc.defaults.ChainDepth},
	} {
		switch {
		case *f.set < 0:
			return cfg, fmt.Errorf("crashtest: %s = %d", f.name, *f.set)
		case f.def == 0 && *f.set != 0:
			return cfg, fmt.Errorf("crashtest: scenario %s does not use %s", sc.name, f.name)
		case *f.set == 0:
			*f.set = f.def
		}
	}
	if sc.fixed() && len(cfg.Engines) > 0 {
		return cfg, fmt.Errorf("crashtest: scenario %s does not use Engines", sc.name)
	}
	cfg.Scenario = sc.name
	return cfg, nil
}

// selectSubjects resolves engine names ("all" or empty = every subject).
func (sc *scenario) selectSubjects(names []string) ([]string, error) {
	var out []string
	for _, n := range names {
		switch {
		case n == "all":
			return sc.subjects, nil
		case !slices.Contains(sc.subjects, n):
			return nil, fmt.Errorf("crashtest: unknown engine %q for scenario %s (known: %s)",
				n, sc.name, strings.Join(sc.subjects, ", "))
		case !slices.Contains(out, n):
			out = append(out, n)
		}
	}
	if len(out) == 0 {
		return sc.subjects, nil
	}
	return out, nil
}

// Run executes one campaign per selected subject of cfg.Scenario, returning
// the per-subject reports and the first Failure found (nil if every round
// validates). Reports for subjects that completed before the failure are
// still returned.
func Run(cfg Config) ([]Report, error) {
	sc, err := findScenario(cfg.Scenario)
	if err != nil {
		return nil, err
	}
	if cfg, err = sc.resolve(cfg); err != nil {
		return nil, err
	}
	subjects, err := sc.selectSubjects(cfg.Engines)
	if err != nil {
		return nil, err
	}
	var reports []Report
	var failure error
	for _, subject := range subjects {
		rep, err := runCampaign(cfg, sc, subject)
		reports = append(reports, rep)
		if err != nil {
			failure = err
			break
		}
	}
	if reg := cfg.Metrics; reg != nil {
		for _, rep := range reports {
			reg.Counter(sc.metric + "rounds_total").Add(uint64(rep.Rounds))
			for _, c := range rep.Census {
				reg.Counter(sc.metric + c.Name + "_total").Add(c.N)
			}
		}
	}
	return reports, failure
}

// engineSeed derives a per-subject stream from the campaign seed.
func engineSeed(seed int64, salt string) int64 {
	h := fnv.New64a()
	h.Write([]byte(salt))
	return seed ^ int64(h.Sum64())
}

func runCampaign(cfg Config, sc *scenario, subject string) (Report, error) {
	workers := max(1, cfg.Workers) // a scenario that takes no Workers is single-threaded
	if sc.workers != nil {
		workers = sc.workers(cfg, subject)
	}
	rep := Report{Scenario: sc.name, Engine: subject, Workers: workers, Census: make([]Counter, len(sc.census))}
	for i, name := range sc.census {
		rep.Census[i].Name = name
	}
	rng := rand.New(rand.NewSource(engineSeed(cfg.Seed, sc.salt+subject)))
	for n := 0; n < cfg.Rounds; n++ {
		seed := rng.Int63()
		r := &round{cfg: cfg, subject: subject, n: n, seed: seed, workers: workers,
			rng: rand.New(rand.NewSource(seed)), rep: &rep}
		if err := r.run(sc); err != nil {
			if f, ok := err.(*Failure); ok {
				f.Scenario = sc.name
				f.Engine = subject
				f.Round = n
				f.CampaignSeed = cfg.Seed
				f.RoundSeed = seed
				f.Threads = workers
			}
			return rep, err
		}
		rep.Rounds++
	}
	if sc.verify != nil {
		if err := sc.verify(&rep); err != nil {
			return rep, err
		}
	}
	return rep, nil
}
