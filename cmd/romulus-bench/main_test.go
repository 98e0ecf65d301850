package main

import (
	"bytes"
	"io"
	"os"
	"strings"
	"testing"
)

// makefileLines returns the romulus-bench recipe lines of the Makefile as
// argument lists, each with the results file its output is teed into.
func makefileLines(t *testing.T) (args [][]string, files []string) {
	t.Helper()
	mk, err := os.ReadFile("../../Makefile")
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(string(mk), "\n") {
		_, rest, ok := strings.Cut(line, "romulus-bench ")
		if !ok || !strings.HasPrefix(line, "\t") {
			continue
		}
		cmd, tee, _ := strings.Cut(rest, "|")
		args = append(args, strings.Fields(cmd))
		files = append(files, strings.TrimPrefix(strings.TrimSpace(tee), "tee "))
	}
	return args, files
}

// TestMakefileInvocationsParse runs every romulus-bench recipe line of the
// Makefile through the real flag set and the per-result flag check (nothing
// executes), so a renamed flag, a removed result, or a flag the result does
// not read fails here and not in `make experiments`.
func TestMakefileInvocationsParse(t *testing.T) {
	args, files := makefileLines(t)
	seen := map[string]bool{}
	for i, a := range args {
		c, err := parse(a, io.Discard)
		if err != nil {
			t.Errorf("Makefile: romulus-bench %s: %v", strings.Join(a, " "), err)
			continue
		}
		seen[c.fig] = true
		if !strings.HasPrefix(files[i], "results/") {
			t.Errorf("Makefile: romulus-bench %s writes %q, want a results/ file", strings.Join(a, " "), files[i])
		}
	}
	if len(seen) != len(reads) {
		t.Fatalf("the Makefile regenerates %d of the %d results: %v", len(seen), len(reads), seen)
	}
}

// TestPinnedResultsRegenerate renders the two deterministic results —
// Table 1's per-transaction counts and §6.2's pwb histograms — with the
// Makefile's own invocation and compares them byte for byte with the
// checked-in results/ files.
func TestPinnedResultsRegenerate(t *testing.T) {
	args, files := makefileLines(t)
	pinned := 0
	for i, a := range args {
		if files[i] != "results/table1.txt" && files[i] != "results/pwbhist.txt" {
			continue
		}
		pinned++
		want, err := os.ReadFile("../../" + files[i])
		if err != nil {
			t.Fatal(err)
		}
		var got bytes.Buffer
		if err := run(a, &got, io.Discard); err != nil {
			t.Fatalf("romulus-bench %s: %v", strings.Join(a, " "), err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Errorf("romulus-bench %s no longer reproduces %s:\n%s", strings.Join(a, " "), files[i], got.String())
		}
	}
	if pinned != 2 {
		t.Fatalf("found %d Makefile lines writing results/table1.txt or results/pwbhist.txt, want 2", pinned)
	}
}

// TestSmokeEveryResult renders every result at toy sizes.
func TestSmokeEveryResult(t *testing.T) {
	quick := "-secs 0.01 -engines romlog"
	for _, tc := range []struct{ args, want string }{
		{"-fig table1 -stores 8 -txs 2", "Table 1 — transactional persistence costs (8 stores/tx"},
		{"-fig 4 -threads 1 -keys 50 " + quick, "Figure 4 — reads: tree (TX/s, 50 keys)"},
		{"-fig 5 -threads 1 -keys 20 " + quick, "Figure 5 — 1024-byte values"},
		{"-fig 6 -threads 1 -sizes 500 " + quick, "Figure 6 — hash map, 100% writes, 500 keys"},
		{"-fig 6 -threads 1 -sizes 300 -secs 0.01 -engines rom,romlog,romlr,mne,pmdk", "\nmne "},
		{"-fig 7 -threads 1 -keys 50 -model clwb " + quick, "Figure 7 (right) — read TX/s, no writers"},
		{"-fig 8 -threads 1 -keys 50 -workloads fillseq,readreverse", "Figure 8 — readreverse (µs/op, 50 ops/thread)"},
		{"-fig 9 -sizes 1,4 -model dram,pcm " + quick, "Figure 9 — SPS, pcm (swaps/µs, single thread)"},
		{"-fig pwbhist -keys 50", "pwbs per update transaction — tree (50 keys, steady state)"},
		{"-fig recovery -sizes 200", "Recovery cost (§6.5)"},
	} {
		var out bytes.Buffer
		if err := run(strings.Fields(tc.args), &out, io.Discard); err != nil {
			t.Errorf("%s: %v", tc.args, err)
			continue
		}
		if !strings.Contains(out.String(), tc.want) {
			t.Errorf("%s: output lacks %q:\n%s", tc.args, tc.want, out.String())
		}
	}
}

// TestRejectsBadInvocations: an unknown result, an unknown flag, a flag the
// result does not read, a model list outside Figure 9 and a stray argument
// are usage errors, and none writes to the results stream.
func TestRejectsBadInvocations(t *testing.T) {
	for _, args := range []string{
		"-fig 10", "-fig table2", "-pwbhist",
		"-fig table1 -secs 1", "-fig 4 -sizes 10", "-fig 8 -engines rom", "-fig 9 -threads 2",
		"-fig pwbhist -stores 8", "-fig pwbhist -txs 50", "-fig recovery -keys 10",
		"-fig 4 -model dram,pcm", "-fig 4 -model nope", "-fig 4 stray", "-fig 4 -nope 1",
	} {
		var out bytes.Buffer
		if err := run(strings.Fields(args), &out, io.Discard); err == nil {
			t.Errorf("%s: accepted", args)
		}
		if out.Len() > 0 {
			t.Errorf("%s: wrote %q to the results stream", args, out.String())
		}
	}
}
