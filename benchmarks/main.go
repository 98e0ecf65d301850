// Command benchmarks is the repository's benchmark: it runs one workload
// against the store, from the romulusd wire protocol (or the shard.Store API)
// down to the simulated device, prints every metric by name and unit, and
// checks that no acknowledged write is lost across a crash. BENCHMARK.json
// at the repository root names the workloads, the metrics and their bounds;
// README.md in this directory explains them.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strings"
	"time"

	"repro/internal/pmem"
)

// spec is the part of BENCHMARK.json the program reads.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func loadSpec(path string) (*spec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// result is the line a run ends with.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted uint64                 `json:"attempted"`
	Failed    uint64                 `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report pairs the run's values with the names and units BENCHMARK.json
// fixes, so the two cannot drift: a metric the run did not produce is an
// error, one the file does not name is not printed.
func report(defs []metricSpec, out *outcome) (*result, error) {
	res := &result{Correct: out.failed == 0, Attempted: out.attempted, Failed: out.failed,
		Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v, ok := out.values[d.Name]
		if !ok {
			return nil, fmt.Errorf("the run produced no metric %q", d.Name)
		}
		fmt.Printf("%-36s %14.4f %s\n", d.Name, v, d.Unit)
		res.Metrics[d.Name] = metricValue{v, d.Unit}
	}
	fmt.Printf("%-36s %14d\n%-36s %14d\n", "ops_attempted", out.attempted, "ops_failed", out.failed)
	return res, nil
}

func list(sp *spec) {
	fmt.Println("workloads:")
	for _, w := range sp.Workloads {
		fmt.Printf("  %-18s %s\n", w.Name, w.Why)
	}
	fmt.Println("end-to-end metrics (unit, better, bound):")
	for _, m := range sp.EndToEnd {
		fmt.Printf("  %-36s %-6s %-7s %.0f%%\n", m.Name, m.Unit, m.Better, 100*m.Bound)
	}
	fmt.Println("per-layer metrics (unit, better), from -trace 1:")
	for _, m := range sp.PerLayer {
		fmt.Printf("  %-36s %-6s %s\n", m.Name, m.Unit, m.Better)
	}
}

// repeat runs the same workload n times in fresh processes and prints, per
// metric, how far the runs spread (for end-to-end metrics, against the bound).
func repeat(defs []metricSpec, n int, args []string) error {
	runs := map[string][]float64{}
	for i := 0; i < n; i++ {
		cmd := exec.Command(os.Args[0], args...)
		cmd.Stderr = os.Stderr
		b, err := cmd.Output()
		if err != nil {
			return fmt.Errorf("run %d: %w", i+1, err)
		}
		lines := strings.Split(strings.TrimSpace(string(b)), "\n")
		var res result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			return fmt.Errorf("run %d: %w", i+1, err)
		}
		if !res.Correct {
			return fmt.Errorf("run %d: %d of %d operations failed", i+1, res.Failed, res.Attempted)
		}
		for name, m := range res.Metrics {
			runs[name] = append(runs[name], m.Value)
		}
		fmt.Fprintf(os.Stderr, "run %d of %d done\n", i+1, n)
	}
	fmt.Printf("%-28s %12s %12s %12s %9s %7s %6s\n", "metric", "min", "median", "max", "range/med", "iqr/med", "bound")
	for _, m := range defs {
		xs := append([]float64(nil), runs[m.Name]...)
		sort.Float64s(xs)
		med := median(xs)
		fmt.Printf("%-28s %12.4f %12.4f %12.4f %8.2f%% %6.2f%% %5.0f%%\n", m.Name, xs[0], med, xs[len(xs)-1],
			100*div(xs[len(xs)-1]-xs[0], med), 100*iqrShare(xs), 100*m.Bound)
	}
	return nil
}

// metrics returns the metrics a run of this kind reports.
func (sp *spec) metrics(trace bool) []metricSpec {
	if trace {
		return sp.PerLayer
	}
	return sp.EndToEnd
}

func main() {
	if err := mainErr(); err != nil {
		fmt.Fprintln(os.Stderr, "benchmarks:", err)
		os.Exit(1)
	}
}

func mainErr() error {
	var (
		name     = flag.String("workload", "", "workload to run (see -list)")
		seed     = flag.Int64("seed", 1, "seed of the generated operations")
		seconds  = flag.Int("seconds", 24, "measurement windows, one second each")
		trace    = flag.Int("trace", 0, "1: the traced run, which prints the per-layer metrics")
		specPath = flag.String("spec", "BENCHMARK.json", "the benchmark's definition")
		outDir   = flag.String("out", "benchmarks/out", "where a traced run writes trace-<workload>.json")
		model    = flag.String("model", "", "run on this persistence model instead of the workload's (one-off comparisons)")
		doList   = flag.Bool("list", false, "print workloads and metrics from BENCHMARK.json")
		repeatN  = flag.Int("repeat", 0, "run the workload this many times in fresh processes and print the spread")
	)
	flag.Parse()
	sp, err := loadSpec(*specPath)
	if err != nil {
		return err
	}
	if *doList {
		list(sp)
		return nil
	}
	w, err := workloadByName(*name)
	if err != nil {
		return err
	}
	if *model != "" {
		m, ok := pmem.ModelByName(*model)
		if !ok {
			return fmt.Errorf("unknown persistence model %q", *model)
		}
		w.model = m
	}
	if *seconds < 1 {
		return errors.New("-seconds must be at least 1")
	}
	defs := sp.metrics(*trace != 0)
	if *repeatN > 0 {
		var args []string
		flag.Visit(func(f *flag.Flag) {
			if f.Name != "repeat" {
				args = append(args, "-"+f.Name+"="+f.Value.String())
			}
		})
		return repeat(defs, *repeatN, args)
	}
	out, err := run(config{w: w, seed: *seed, windows: *seconds, window: time.Second, warmup: 3,
		setups: 5, recovers: 9, fill: 1500 * time.Millisecond, trace: *trace != 0, ladder: 20_000, outDir: *outDir})
	if err != nil {
		return err
	}
	res, err := report(defs, out)
	if err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.Correct {
		return fmt.Errorf("%d of %d operations failed", res.Failed, res.Attempted)
	}
	return nil
}
