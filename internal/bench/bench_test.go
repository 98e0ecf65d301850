package bench

import (
	"strings"
	"testing"
	"time"

	"repro/internal/pmem"
)

func TestNewEngineAllKinds(t *testing.T) {
	for _, kind := range EngineKinds {
		e, err := NewEngine(kind, 1<<20, pmem.ModelDRAM)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if e.Name() == "" {
			t.Errorf("%s: empty name", kind)
		}
	}
	if _, err := NewEngine("nope", 1<<20, pmem.ModelDRAM); err == nil {
		t.Error("unknown kind accepted")
	}
}

func TestParseHelpers(t *testing.T) {
	kinds, err := ParseEngines("")
	if err != nil || kinds != nil {
		t.Errorf("ParseEngines(\"\") = %v, %v, want nil (each result's default)", kinds, err)
	}
	kinds, err = ParseEngines("rom,pmdk")
	if err != nil || len(kinds) != 2 {
		t.Errorf("ParseEngines = %v, %v", kinds, err)
	}
	if _, err := ParseEngines("bogus"); err == nil {
		t.Error("bogus engine accepted")
	}
	ints, err := ParseInts("1, 2,30")
	if err != nil || len(ints) != 3 || ints[2] != 30 {
		t.Errorf("ParseInts = %v, %v", ints, err)
	}
	if _, err := ParseInts("x"); err == nil {
		t.Error("bad int accepted")
	}
}

func TestDataStructuresRunUnderHarness(t *testing.T) {
	for _, ds := range append(append([]string{}, DSKinds...), "fixed") {
		e, err := NewEngine("romlog", RegionFor(100, 64), pmem.ModelDRAM)
		if err != nil {
			t.Fatal(err)
		}
		d, err := NewDS(e, ds, 100, 64)
		if err != nil {
			t.Fatalf("%s: %v", ds, err)
		}
		res, err := RunMixed(e, d, 1, 1, 100, 50*time.Millisecond)
		if err != nil {
			t.Fatalf("%s: %v", ds, err)
		}
		if res.WriteOps == 0 || res.ReadOps == 0 {
			t.Errorf("%s: no progress: %+v", ds, res)
		}
	}
	if _, err := NewDS(nil, "nope", 1, 0); err == nil {
		t.Error("unknown DS accepted")
	}
}

func TestRunSPS(t *testing.T) {
	e, err := NewEngine("romlog", 1<<20, pmem.ModelDRAM)
	if err != nil {
		t.Fatal(err)
	}
	v, err := RunSPS(e, 1000, 4, 50*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if v <= 0 {
		t.Errorf("swaps/us = %f", v)
	}
}

func TestRunDBBenchSmoke(t *testing.T) {
	for _, db := range []string{"romdb", "leveldb"} {
		for _, w := range DBWorkloads {
			entries := 200
			res, err := RunDBBench(db, w, t.TempDir(), 2, entries)
			if err != nil {
				t.Fatalf("%s/%s: %v", db, w, err)
			}
			if res.MicrosPerOp <= 0 {
				t.Errorf("%s/%s: micros/op = %f", db, w, res.MicrosPerOp)
			}
		}
	}
	if _, err := RunDBBench("romdb", "nope", t.TempDir(), 1, 10); err == nil {
		t.Error("unknown workload accepted")
	}
	if _, err := RunDBBench("nope", "fillseq", t.TempDir(), 1, 10); err == nil {
		t.Error("unknown db accepted")
	}
}

func TestMeasureRecovery(t *testing.T) {
	res, err := MeasureRecovery(500)
	if err != nil {
		t.Fatal(err)
	}
	if res.FullCopy <= 0 || res.DiffCopy <= 0 || res.Watermark <= 0 {
		t.Errorf("recovery result: %+v", res)
	}
	// One interrupted Put damages a handful of lines, whatever the population.
	if r := res.Repaired; r.State != 1 || r.Lines == 0 || r.Lines > 16 || r.Compared != uint64(res.Watermark) {
		t.Errorf("diff copy repaired %+v of a %d-byte prefix", r, res.Watermark)
	}
}

func TestMeasureTable1(t *testing.T) {
	rows, err := MeasureTable1(64, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(EngineKinds) {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		switch r.Engine {
		case "rom", "romlog", "romlr":
			if r.Fences > 4 {
				t.Errorf("%s: %f fences/tx, want <= 4", r.Engine, r.Fences)
			}
		case "pmdk":
			if r.Fences < 64 {
				t.Errorf("pmdk: %f fences/tx, want >= one per word", r.Fences)
			}
		case "mne":
			if r.Fences < 4 {
				t.Errorf("mne: %f fences/tx, want >= 4", r.Fences)
			}
		}
	}
	// The headline amplification contrast: Romulus ~100%, baselines far
	// higher.
	var romAmp, mneAmp, pmdkAmp float64
	for _, r := range rows {
		switch r.Engine {
		case "romlog":
			romAmp = r.AmplificationPct
		case "mne":
			mneAmp = r.AmplificationPct
		case "pmdk":
			pmdkAmp = r.AmplificationPct
		}
	}
	if romAmp > 150 {
		t.Errorf("romlog amplification = %.0f%%, want ~100%%", romAmp)
	}
	if mneAmp < 250 {
		t.Errorf("mne amplification = %.0f%%, want >= 300%%-ish", mneAmp)
	}
	if pmdkAmp < 200 {
		t.Errorf("pmdk amplification = %.0f%%, want >= 300%%-ish", pmdkAmp)
	}
	an := AnalyticTable1Rows(64)
	if len(an) != 3 {
		t.Errorf("analytic rows = %d", len(an))
	}
}

func TestFiguresSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("figure sweeps are slow")
	}
	opts := FigOptions{
		Engines:  []string{"romlog", "pmdk"},
		Threads:  []int{1, 2},
		Duration: 30 * time.Millisecond,
		Model:    pmem.ModelDRAM,
	}
	out, err := Fig4(opts)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "Figure 4") {
		t.Error("fig4 output malformed")
	}
	if out, err = Fig5(opts); err != nil || !strings.Contains(out, "Figure 5") {
		t.Fatalf("fig5: %v", err)
	}
	if out, err = Fig6(opts, []int{2000}); err != nil || !strings.Contains(out, "Figure 6") {
		t.Fatalf("fig6: %v", err)
	}
	if out, err = Fig7(opts); err != nil || !strings.Contains(out, "Figure 7") {
		t.Fatalf("fig7: %v", err)
	}
	if out, err = Fig9(opts, []int{1, 8}, []pmem.Model{pmem.ModelDRAM}); err != nil || !strings.Contains(out, "Figure 9") {
		t.Fatalf("fig9: %v", err)
	}
}

func TestTablePrinter(t *testing.T) {
	tb := NewTable("a", "bb")
	tb.Row("x", 1234.5)
	tb.Row("yyyy", 0.25)
	s := tb.String()
	if !strings.Contains(s, "a") || !strings.Contains(s, "1234") || !strings.Contains(s, "0.250") {
		t.Errorf("table output:\n%s", s)
	}
}

func TestMedian(t *testing.T) {
	if Median(nil) != 0 {
		t.Error("empty median")
	}
	if Median([]float64{3, 1, 2}) != 2 {
		t.Error("odd median")
	}
	if Median([]float64{4, 1, 2, 3}) != 2.5 {
		t.Error("even median")
	}
}
