// Command romulus-bench regenerates Figures 4, 5, 6 and 7 of the Romulus
// paper: data-structure throughput across engines, thread counts, value
// sizes and population sizes.
//
// Usage:
//
//	romulus-bench -fig 4 [-engines rom,romlog,romlr,mne,pmdk]
//	              [-threads 1,2,4,8] [-secs 1] [-keys 1000] [-model dram]
//	romulus-bench -fig 6 -sizes 10000,100000,1000000
//	romulus-bench -pwbhist [-keys 1000]
//
// The paper's full-fidelity settings are -secs 20 with five runs; defaults
// are scaled for a quick pass. -pwbhist prints the §6.2 distribution of
// pwbs per update transaction instead of a figure.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/bench"
	"repro/internal/pmem"
)

func main() {
	fig := flag.Int("fig", 4, "figure to reproduce: 4, 5, 6 or 7")
	pwbHist := flag.Bool("pwbhist", false, "print pwbs-per-transaction histograms (§6.2 analysis) instead of a figure")
	engines := flag.String("engines", "all", "comma-separated engine list (rom,romlog,romlr,mne,pmdk)")
	threads := flag.String("threads", "1,2,4,8", "comma-separated thread counts")
	secs := flag.Float64("secs", 1, "seconds per data point")
	keys := flag.Int("keys", 0, "population size (default: the figure's)")
	sizes := flag.String("sizes", "10000,100000,1000000", "figure 6 population sizes")
	model := flag.String("model", "dram", "persistence model: dram, clwb, clflushopt, clflush, stt, pcm")
	flag.Parse()

	kinds, err := bench.ParseEngines(*engines)
	exitOn(err)
	ths, err := bench.ParseInts(*threads)
	exitOn(err)
	m, ok := pmem.ModelByName(*model)
	if !ok {
		exitOn(fmt.Errorf("unknown model %q", *model))
	}
	opts := bench.FigOptions{
		Engines:  kinds,
		Threads:  ths,
		Duration: time.Duration(*secs * float64(time.Second)),
		Keys:     *keys,
		Model:    m,
	}
	if *pwbHist {
		k := opts.Keys
		if k == 0 {
			k = 1000
		}
		out, err := bench.PwbHistograms(k, 2000)
		exitOn(err)
		fmt.Print(out)
		return
	}
	var out string
	switch *fig {
	case 4:
		out, err = bench.Fig4(opts)
	case 5:
		out, err = bench.Fig5(opts)
	case 6:
		var szs []int
		szs, err = bench.ParseInts(*sizes)
		if err == nil {
			out, err = bench.Fig6(opts, szs)
		}
	case 7:
		out, err = bench.Fig7(opts)
	default:
		err = fmt.Errorf("unknown figure %d (use 4, 5, 6 or 7)", *fig)
	}
	exitOn(err)
	fmt.Print(out)
}

func exitOn(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "romulus-bench:", err)
		os.Exit(1)
	}
}
