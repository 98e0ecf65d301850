// Command romulus-bench regenerates the evaluation of the Romulus paper (§6):
// Table 1, Figures 4 to 9, the §6.2 pwb-per-transaction histograms and the
// §6.5 recovery table. -fig picks the result; the other flags size it, a zero
// or empty value selects the result's own default, and a flag the chosen
// result does not read is a usage error.
//
// Usage:
//
//	romulus-bench -fig table1 [-stores 64] [-txs 100]
//	romulus-bench -fig 4 [-engines rom,romlog,romlr,mne,pmdk]
//	              [-threads 1,2,4,8] [-secs 1] [-keys 1000] [-model dram]
//	romulus-bench -fig 6 -sizes 10000,100000,1000000
//	romulus-bench -fig 8 [-keys 100000] [-threads 1,2,4] [-workloads fillseq,...] [-dbs romdb,leveldb]
//	romulus-bench -fig 9 [-sizes 1,4,...,1024] [-model clwb,clflushopt,clflush,stt,pcm] [-secs 1]
//	romulus-bench -fig pwbhist [-keys 1000]
//	romulus-bench -fig recovery [-sizes 1000,10000,100000,1000000]
//
// The paper's full-fidelity settings are -secs 20 with five runs, and
// -keys 1000000 for Figure 8; defaults are scaled for a quick pass.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/pmem"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		if !errors.Is(err, flag.ErrHelp) {
			fmt.Fprintln(os.Stderr, "romulus-bench:", err)
		}
		os.Exit(1)
	}
}

// reads names, per -fig value, the flags that result reads besides -fig.
var reads = map[string][]string{
	"table1":   {"stores", "txs"},
	"4":        {"engines", "threads", "secs", "keys", "model"},
	"5":        {"engines", "threads", "secs", "keys", "model"},
	"6":        {"engines", "threads", "secs", "sizes", "model"},
	"7":        {"engines", "threads", "secs", "keys", "model"},
	"8":        {"threads", "keys", "workloads", "dbs"},
	"9":        {"engines", "secs", "sizes", "model"},
	"pwbhist":  {"keys"},
	"recovery": {"sizes"},
}

// config is one parsed invocation.
type config struct {
	fig            string
	opts           bench.FigOptions
	sizes          []int
	models         []pmem.Model
	stores, txs    int
	workloads, dbs []string
}

// run parses args and prints the chosen result to out; usage and parse
// errors go to errOut, so a bad invocation never lands in a results file.
func run(args []string, out, errOut io.Writer) error {
	c, err := parse(args, errOut)
	if err != nil {
		return err
	}
	s, err := c.render()
	if err != nil {
		return err
	}
	_, err = io.WriteString(out, s)
	return err
}

// parse validates args against the flag set and the chosen result; the
// flag set writes usage and parse errors to errOut.
func parse(args []string, errOut io.Writer) (*config, error) {
	fs := flag.NewFlagSet("romulus-bench", flag.ContinueOnError)
	fs.SetOutput(errOut)
	c := &config{}
	fs.StringVar(&c.fig, "fig", "4", "result: 4, 5, 6, 7, 8, 9, table1, pwbhist or recovery")
	engines := fs.String("engines", "all", "figures 4-7 and 9: comma-separated engines (rom,romlog,romlr,mne,pmdk)")
	threads := fs.String("threads", "", "figures 4-8: comma-separated thread counts, readers for figure 7 (default 1,2,4,8; 2,4,8 for 7; 1,2,4 for 8)")
	secs := fs.Float64("secs", 1, "figures 4-7 and 9: seconds per data point")
	fs.IntVar(&c.opts.Keys, "keys", 0, "population: keys for figures 4, 5, 7 and pwbhist, operations per thread for figure 8 (0 = the result's)")
	sizes := fs.String("sizes", "", "comma-separated sweep: populations for figure 6, swaps per transaction for 9, entries for recovery (default: the result's)")
	model := fs.String("model", "", "persistence model: dram, clwb, clflushopt, clflush, stt or pcm; a comma-separated list for figure 9 (default dram; every model but dram for 9)")
	fs.IntVar(&c.stores, "stores", 0, "table1: 64-bit stores per transaction (0 = 64)")
	fs.IntVar(&c.txs, "txs", 0, "table1: transactions averaged over (0 = 100)")
	workloads := fs.String("workloads", "", "figure 8: comma-separated db_bench workloads (default "+strings.Join(bench.DBWorkloads, ",")+")")
	dbs := fs.String("dbs", "", "figure 8: comma-separated stores (default romdb,leveldb)")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if fs.NArg() > 0 {
		return nil, fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	known, ok := reads[c.fig]
	if !ok {
		return nil, fmt.Errorf("unknown -fig %q (use 4, 5, 6, 7, 8, 9, table1, pwbhist or recovery)", c.fig)
	}
	var stray error
	fs.Visit(func(f *flag.Flag) {
		if f.Name != "fig" && !slices.Contains(known, f.Name) && stray == nil {
			stray = fmt.Errorf("-fig %s does not read -%s", c.fig, f.Name)
		}
	})
	if stray != nil {
		return nil, stray
	}

	var err error
	if c.opts.Engines, err = bench.ParseEngines(*engines); err != nil {
		return nil, err
	}
	c.opts.Duration = time.Duration(*secs * float64(time.Second))
	if c.opts.Threads, err = bench.ParseInts(*threads); err != nil {
		return nil, err
	}
	if c.sizes, err = bench.ParseInts(*sizes); err != nil {
		return nil, err
	}
	c.workloads, c.dbs = split(*workloads), split(*dbs)
	for _, name := range split(*model) {
		m, ok := pmem.ModelByName(name)
		if !ok {
			return nil, fmt.Errorf("unknown model %q", name)
		}
		c.models = append(c.models, m)
	}
	if len(c.models) > 1 && c.fig != "9" {
		return nil, fmt.Errorf("-fig %s runs one -model, got %d", c.fig, len(c.models))
	}
	if len(c.models) == 1 {
		c.opts.Model = c.models[0]
	}
	return c, nil
}

// render runs the chosen result and returns its text.
func (c *config) render() (string, error) {
	switch c.fig {
	case "table1":
		return bench.Table1(c.stores, c.txs)
	case "4":
		return bench.Fig4(c.opts)
	case "5":
		return bench.Fig5(c.opts)
	case "6":
		return bench.Fig6(c.opts, c.sizes)
	case "7":
		return bench.Fig7(c.opts)
	case "8":
		return bench.Fig8(c.opts, c.workloads, c.dbs)
	case "9":
		return bench.Fig9(c.opts, c.sizes, c.models)
	case "pwbhist":
		return bench.PwbHist(c.opts.Keys, 2000)
	default: // "recovery"; parse admits no other value
		return bench.Recovery(c.sizes)
	}
}

// split splits a comma-separated list; empty selects the default (nil).
func split(s string) []string {
	if s == "" {
		return nil
	}
	parts := strings.Split(s, ",")
	for i := range parts {
		parts[i] = strings.TrimSpace(parts[i])
	}
	return parts
}
