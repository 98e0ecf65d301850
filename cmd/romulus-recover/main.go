// Command romulus-recover is the offline forensics tool for saved images:
// it decodes what a crash left behind, read-only, without running recovery.
// (romulus-bench -fig recovery measures recovery cost, §6.5.)
//
// With -flight <image> it performs flight-recorder forensics: the saved
// device image's header locates the reserved tail, and the blackbox ring
// there is decoded and printed — which group-commit batches had started and
// committed, which were still in flight, and any prior recoveries.
//
// With -coord <image> it inspects a saved coordinator-log image instead:
// the two-phase record's disposition (free, prepared-in-doubt, or garbage),
// a per-shard census of any staged batch, and the placement record with its
// migration journal — what recovery would do (roll the batch forward, roll
// a split back, or carry a cutover through).
//
// -json emits either report as one JSON object for tooling.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"repro/internal/blackbox"
	"repro/internal/core"
	"repro/internal/migrate"
	"repro/internal/pmem"
	"repro/internal/shard"
)

func main() {
	flight := flag.String("flight", "", "dump the flight recorder of a saved device image")
	coord := flag.String("coord", "", "dump the two-phase record, placement map and migration journal of a saved coordinator image")
	jsonOut := flag.Bool("json", false, "emit the report as JSON")
	flag.Parse()

	switch {
	case *flight != "":
		exitOn(dumpFlight(*flight, *jsonOut))
	case *coord != "":
		exitOn(dumpCoord(*coord, *jsonOut))
	default:
		flag.Usage()
		os.Exit(2)
	}
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
