package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"strings"
	"testing"

	"repro/internal/crashtest"
)

// TestMakefileInvocationsParse runs every romulus-crashtest recipe line of
// the Makefile through the real flag set and the driver's own validation
// (zero rounds: nothing executes), so a renamed flag, a removed scenario, or
// a flag the scenario does not consume fails here and not in `make test`.
func TestMakefileInvocationsParse(t *testing.T) {
	mk, err := os.ReadFile("../../Makefile")
	if err != nil {
		t.Fatal(err)
	}
	found := 0
	for _, line := range strings.Split(string(mk), "\n") {
		_, args, ok := strings.Cut(line, "romulus-crashtest ")
		if !ok || !strings.HasPrefix(line, "\t") {
			continue
		}
		found++
		var out bytes.Buffer
		if err := run(append(strings.Fields(args), "-rounds", "0"), &out, &out); err != nil {
			t.Errorf("Makefile: %q: %v\n%s", strings.TrimSpace(line), err, out.String())
		}
	}
	if found < 7 {
		t.Fatalf("found %d romulus-crashtest recipe lines in the Makefile, want the 7 campaign targets", found)
	}
}

// TestRejectsFlagsTheScenarioIgnores: each is a usage error naming the
// scenario and the Config field the flag sets, never a silent no-op.
func TestRejectsFlagsTheScenarioIgnores(t *testing.T) {
	for _, tc := range []struct{ args, field string }{
		{"-scenario crash -shards 3", "Shards"},
		{"-scenario rounds -keys 64", "Keys"},
		{"-scenario rounds -shards 1", "Shards"},
		{"-scenario faults -shards 2", "Shards"},
		{"-scenario faults -chain 2", "ChainDepth"},
		{"-scenario faults -threads 2", "Workers"},
		{"-scenario xshard -engines rom", "Engines"},
		{"-scenario xshard -threads 4", "Workers"},
		{"-scenario migrate -engines all", "Engines"},
		{"-scenario migrate -threads 4", "Workers"},
	} {
		scenario := strings.Fields(tc.args)[1]
		err := run(append(strings.Fields(tc.args), "-rounds", "1"), io.Discard, io.Discard)
		if err == nil || !strings.Contains(err.Error(), scenario) || !strings.Contains(err.Error(), tc.field) {
			t.Errorf("%s: err = %v, want a refusal naming %s and %s", tc.args, err, scenario, tc.field)
		}
	}
	for _, args := range []string{"-scenario nope", "-scenario batch", "-scenario replicate", "-scenario group"} {
		if err := run(strings.Fields(args), io.Discard, io.Discard); err == nil {
			t.Errorf("%s: accepted", args)
		}
	}
	// Flag errors and usage go to errOut: nothing reaches the reports stream.
	for _, args := range []string{"-batch", "-xshard", "-faults", "-group", "-replicate", "-migrate",
		"-trace -", "-json -tracecap 8", "stray"} {
		var out bytes.Buffer
		if err := run(strings.Fields(args), &out, io.Discard); err == nil {
			t.Errorf("%s: accepted", args)
		}
		if out.Len() > 0 {
			t.Errorf("%s: wrote %q to the reports stream", args, out.String())
		}
	}
}

// TestSmokeEveryScenario runs two audited rounds of each scenario through the
// CLI in both output modes: the one printer must render every census, and
// -metrics must work everywhere.
func TestSmokeEveryScenario(t *testing.T) {
	for _, name := range crashtest.ScenarioNames() {
		var text bytes.Buffer
		if err := run([]string{"-scenario", name, "-rounds", "2", "-seed", "1", "-audit", "-metrics"}, &text, io.Discard); err != nil {
			t.Errorf("%s: %v\n%s", name, err, text.String())
			continue
		}
		for _, want := range []string{" 2 rounds, ", "audit: 0 violations", "pmem_fence_total", "audit_durable_check_total", "rounds_total", "\nOK\n"} {
			if !strings.Contains(text.String(), want) {
				t.Errorf("%s: text output lacks %q:\n%s", name, want, text.String())
			}
		}

		var js bytes.Buffer
		if err := run([]string{"-scenario", name, "-rounds", "2", "-seed", "1", "-json", "-metrics"}, &js, io.Discard); err != nil {
			t.Errorf("%s -json: %v", name, err)
			continue
		}
		var doc struct {
			Scenario string
			Reports  []crashtest.Report
			Metrics  struct{ Counters map[string]uint64 }
		}
		if err := json.Unmarshal(js.Bytes(), &doc); err != nil {
			t.Errorf("%s -json: %v\n%s", name, err, js.String())
			continue
		}
		if doc.Scenario != name || len(doc.Reports) == 0 || doc.Reports[0].Rounds != 2 || len(doc.Reports[0].Census) == 0 {
			t.Errorf("%s -json: unexpected document %+v", name, doc)
		}
		if doc.Metrics.Counters["pmem_store_total"] == 0 {
			t.Errorf("%s -json: no metrics snapshot", name)
		}
	}
}
