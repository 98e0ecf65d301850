// Command romulus-recover measures recovery cost (§6.5 of the Romulus
// paper): the time to restore consistency after a mid-transaction crash. In
// the paper's algorithm that is dominated by copying the used prefix of the
// region (back over main): ~114 µs for 1,000 key-value pairs, ~127 ms for
// one million, about one second per recovered gigabyte. Each size is measured
// that way (core.Config.FullReplicate) and with the default diff copy, which
// compares the prefix and repairs only the lines the crash left different.
//
// With -flight <image> it instead performs flight-recorder forensics: the
// saved device image's header locates the reserved tail, and the blackbox
// ring there is decoded and printed — which group-commit batches had started
// and committed, which were still in flight, and any prior recoveries — all
// read-only, without running recovery on the image. -json emits the report
// as one JSON object for tooling.
//
// With -coord <image> it inspects a saved coordinator-log image instead:
// the two-phase record's disposition (free, prepared-in-doubt, or garbage),
// a per-shard census of any staged batch, and the placement record with its
// migration journal — what recovery would do (roll the batch forward, roll
// a split back, or carry a cutover through) without running it. -json emits
// the same report as one JSON object.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/blackbox"
	"repro/internal/core"
	"repro/internal/migrate"
	"repro/internal/pmem"
	"repro/internal/shard"
)

func main() {
	sizes := flag.String("sizes", "1000,10000,100000,1000000", "key-value pair counts to measure")
	flight := flag.String("flight", "", "dump the flight recorder of a saved device image instead of benchmarking")
	coord := flag.String("coord", "", "dump the two-phase record, placement map and migration journal of a saved coordinator image instead of benchmarking")
	jsonOut := flag.Bool("json", false, "with -flight or -coord: emit the report as JSON")
	flag.Parse()

	if *flight != "" {
		exitOn(dumpFlight(*flight, *jsonOut))
		return
	}
	if *coord != "" {
		exitOn(dumpCoord(*coord, *jsonOut))
		return
	}

	ns, err := bench.ParseInts(*sizes)
	exitOn(err)
	t := bench.NewTable("entries", "prefix bytes", "full copy", "GB/s", "diff copy", "GB/s", "lines repaired")
	for _, n := range ns {
		res, err := bench.MeasureRecovery(n)
		exitOn(err)
		gbps := func(d time.Duration) float64 { return float64(res.Watermark) / d.Seconds() / 1e9 }
		t.Row(res.Entries, res.Watermark, res.FullCopy.String(), gbps(res.FullCopy),
			res.DiffCopy.String(), gbps(res.DiffCopy), res.Repaired.Lines)
	}
	fmt.Printf("Recovery cost (§6.5) — mid-transaction crash, RomulusLog\n"+
		"full copy = the paper's algorithm (whole prefix copied and written back);\n"+
		"diff copy = this repository's default (prefix compared, differing lines repaired)\n%s", t)
}

// dumpFlight locates and renders the blackbox ring of one saved shard image.
func dumpFlight(path string, asJSON bool) error {
	dev, err := pmem.LoadFile(path, pmem.ModelCLWB)
	if err != nil {
		return err
	}
	off, size, err := core.TailRegion(dev)
	if err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	if size < blackbox.MinSize {
		return fmt.Errorf("%s: no flight recorder (reserved tail is %d bytes; the store ran without -blackbox)", path, size)
	}
	rep := blackbox.Inspect(dev, off, size)
	if asJSON {
		return rep.WriteJSON(os.Stdout)
	}
	fmt.Printf("%s: flight recorder @%#x (%d bytes)\n", path, off, size)
	return rep.WriteText(os.Stdout)
}

// dumpCoord decodes one saved coordinator image offline: the 2PC record's
// disposition and the placement record with any open migration journal.
func dumpCoord(path string, asJSON bool) error {
	img, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	rep := shard.InspectCoordImage(img)
	if asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(rep)
	}
	fmt.Printf("%s: coordinator record (%d bytes)\n", path, len(img))
	if !rep.Formatted {
		fmt.Println("  header:     unformatted (fresh or mid-format image; nothing to resolve)")
	} else {
		switch {
		case rep.InDoubt:
			fmt.Printf("  state:      %s — batch %d IN DOUBT; reopen rolls it forward\n", rep.State, rep.BatchID)
		default:
			fmt.Printf("  state:      %s (batch %d)\n", rep.State, rep.BatchID)
		}
		if rep.PayloadError != "" {
			fmt.Printf("  payload:    %s\n", rep.PayloadError)
		} else if rep.InDoubt {
			var parts []string
			shards := make([]int, 0, len(rep.OpsPerShard))
			for sh := range rep.OpsPerShard {
				shards = append(shards, sh)
			}
			sort.Ints(shards)
			for _, sh := range shards {
				parts = append(parts, fmt.Sprintf("shard %d: %d", sh, rep.OpsPerShard[sh]))
			}
			fmt.Printf("  payload:    %d staged op(s) (%s)\n", rep.PayloadOps, strings.Join(parts, ", "))
		}
	}
	if rep.Placement == nil {
		fmt.Println("  placement:  none (image predates placement routing)")
		return nil
	}
	pl := rep.Placement
	counts := make([]string, len(pl.SlotsPerShard))
	for i, c := range pl.SlotsPerShard {
		counts[i] = fmt.Sprintf("%d", c)
	}
	fmt.Printf("  placement:  %d slots over %d shards, version %d (slots/shard: %s)\n",
		pl.NumSlots, pl.NumShards, pl.Version, strings.Join(counts, " "))
	j := pl.Journal
	switch j.Phase {
	case migrate.PhaseNone:
		fmt.Println("  journal:    closed — no migration in flight")
	case migrate.PhaseCopy:
		fmt.Printf("  journal:    copy (id %d) — %d slot(s) moving %d → %d; reopen rolls the split BACK (purges partial copies from shard %d)\n",
			j.ID, len(j.Slots), j.Src, j.Dst, j.Dst)
	case migrate.PhaseCleanup:
		fmt.Printf("  journal:    cleanup (id %d) — cutover published for %d slot(s) %d → %d; reopen rolls FORWARD (purges moved keys from shard %d)\n",
			j.ID, len(j.Slots), j.Src, j.Dst, j.Src)
	default:
		fmt.Printf("  journal:    %v (id %d) — unrecognized phase\n", j.Phase, j.ID)
	}
	return nil
}

func exitOn(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "romulus-recover:", err)
		os.Exit(1)
	}
}
