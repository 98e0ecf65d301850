// Command romulus-crashtest runs the randomized crash-chain torture campaigns
// of internal/crashtest: a workload, a simulated power failure at a random
// persistence event under a random adversary policy (unfenced lines dropped,
// kept, torn at word granularity, dirty lines randomly evicted), then recovery
// that is itself crashed again up to -chain times, and validation of what
// comes back against the acknowledged history. -scenario picks the system
// under test and what is validated (DESIGN.md, "Crash campaigns"):
//
//	romulus-crashtest -rounds 2000 -chain 3 -threads 4           # six engines, map workload
//	romulus-crashtest -scenario rounds -audit -rounds 150 -chain 2  # combined and group-committed rounds
//	romulus-crashtest -scenario xshard -audit -rounds 120 -chain 2 -shards 3
//
// Failures print a JSON record with the scenario, campaign seed, round seed,
// thread count and full crash chain; re-running with the same -seed,
// -threads 1 and the same flags reproduces any single-threaded round exactly.
// A flag the chosen scenario does not consume is a usage error.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"repro/internal/crashtest"
	"repro/internal/obs"
)

func main() {
	err := run(os.Args[1:], os.Stdout, os.Stderr)
	var f *crashtest.Failure
	switch {
	case err == nil:
	case errors.As(err, &f):
		fmt.Fprintf(os.Stderr, "FAILURE: %v\n", err)
		os.Exit(1)
	default: // bad flags (already reported by the flag set), or a campaign that could not run
		if !errors.Is(err, flag.ErrHelp) {
			fmt.Fprintln(os.Stderr, "romulus-crashtest:", err)
		}
		os.Exit(2)
	}
}

// run parses args, runs the campaign, and prints its reports to out; usage
// and flag errors go to errOut, so -json output stays parseable. It returns
// the campaign's failure, or the reason it could not run.
func run(args []string, out, errOut io.Writer) error {
	fs := flag.NewFlagSet("romulus-crashtest", flag.ContinueOnError)
	fs.SetOutput(errOut)
	var cfg crashtest.Config
	fs.StringVar(&cfg.Scenario, "scenario", "crash", "campaign: "+strings.Join(crashtest.ScenarioNames(), "|"))
	fs.IntVar(&cfg.Rounds, "rounds", 1000, "crash/recover cycles per engine")
	fs.Int64Var(&cfg.Seed, "seed", time.Now().UnixNano(), "campaign seed (printed for reproduction)")
	fs.IntVar(&cfg.Workers, "threads", 0, "Workers: workload goroutines, or connections for the group-* subjects of rounds (0 = scenario default; engines that cannot share the device use 1)")
	fs.IntVar(&cfg.Ops, "txs", 0, "Ops: max operations per worker before each crash (0 = scenario default)")
	fs.IntVar(&cfg.Keys, "keys", 0, "Keys: keyspace size (0 = scenario default)")
	fs.IntVar(&cfg.Shards, "shards", 0, "Shards: shard count, before the split for migrate (0 = scenario default)")
	fs.IntVar(&cfg.ChainDepth, "chain", 0, "ChainDepth: max crashes per round; beyond 1, later crashes land inside recovery (0 = scenario default)")
	engines := fs.String("engines", "", "Engines: comma-separated subjects of the scenario (empty or all = every one)")
	fs.BoolVar(&cfg.Audit, "audit", false, "chain the durability auditor in front of the crash scheduler; any dirty or unfenced line at a commit marker, crash loss of a durably-claimed line, or unflushed line at close fails the round")
	jsonOut := fs.Bool("json", false, "emit reports (and any failure) as JSON")
	metrics := fs.Bool("metrics", false, "print campaign totals (pmem_*, audit_* and the scenario's census counters) after the reports")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if *engines != "" {
		cfg.Engines = strings.Split(*engines, ",")
	}
	if *metrics {
		cfg.Metrics = obs.NewRegistry()
	}
	if !*jsonOut {
		fmt.Fprintf(out, "romulus-crashtest -scenario %s: %d rounds per engine, seed %d\n", cfg.Scenario, cfg.Rounds, cfg.Seed)
	}
	reports, err := crashtest.Run(cfg)
	if *jsonOut {
		return errors.Join(err, printJSON(out, cfg, reports, err))
	}
	printText(out, cfg, reports)
	if err == nil {
		fmt.Fprintln(out, "OK")
	}
	return err
}

// printText walks each report's census: the driver names the counters, so
// one printer serves every scenario.
func printText(out io.Writer, cfg crashtest.Config, reports []crashtest.Report) {
	for _, r := range reports {
		counts := make([]string, len(r.Census))
		for i, c := range r.Census {
			counts[i] = fmt.Sprintf("%s %d", c.Name, c.N)
		}
		fmt.Fprintf(out, "%-12s %6d rounds, %d workers — %s\n", r.Engine, r.Rounds, r.Workers, strings.Join(counts, ", "))
		if cfg.Audit {
			w := r.AuditWaste
			fmt.Fprintf(out, "          audit: %d violations; waste: %d clean pwbs, %d requeued pwbs, "+
				"%d stores on queued lines, %d no-op fences\n",
				r.AuditViolations, w.PwbClean, w.PwbRequeued, w.StoreQueued, w.FenceNoop)
		}
	}
	if cfg.Metrics != nil {
		fmt.Fprintln(out, "# campaign totals")
		cfg.Metrics.WriteText(out)
	}
}

func printJSON(out io.Writer, cfg crashtest.Config, reports []crashtest.Report, err error) error {
	doc := struct {
		Scenario string             `json:"scenario"`
		Seed     int64              `json:"seed"`
		Reports  []crashtest.Report `json:"reports"`
		Metrics  *obs.Snapshot      `json:"metrics,omitempty"`
		Failure  *crashtest.Failure `json:"failure,omitempty"`
		Error    string             `json:"error,omitempty"`
	}{Scenario: cfg.Scenario, Seed: cfg.Seed, Reports: reports}
	if cfg.Metrics != nil {
		snap := cfg.Metrics.Snapshot()
		doc.Metrics = &snap
	}
	if err != nil && !errors.As(err, &doc.Failure) {
		doc.Error = err.Error()
	}
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}
