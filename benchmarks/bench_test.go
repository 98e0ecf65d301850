package main

import (
	"math"
	"regexp"
	"testing"
	"time"
)

func TestHistQuantiles(t *testing.T) {
	var h hist
	for v := uint64(1); v <= 100_000; v++ {
		h.Observe(v * 37) // 37 ns .. 3.7 ms, uniformly
	}
	for _, tc := range []struct{ q, want float64 }{{0.5, 50_000 * 37}, {0.99, 99_000 * 37}, {1, 100_000 * 37}} {
		got := h.Quantile(tc.q)
		if math.Abs(got-tc.want)/tc.want > 0.01 {
			t.Errorf("Quantile(%v) = %.0f, want %.0f within 1%%", tc.q, got, tc.want)
		}
	}
	// Mean of the fastest 99%: 37 * mean(1 .. 99,000).
	if got, want := h.TrimmedMean(0.99), 37*49_500.5; math.Abs(got-want)/want > 0.01 {
		t.Errorf("TrimmedMean(0.99) = %.0f, want %.0f within 1%%", got, want)
	}
	if got, want := h.TrimmedMean(1), 37*50_000.5; math.Abs(got-want)/want > 0.01 {
		t.Errorf("TrimmedMean(1) = %.0f, want %.0f within 1%%", got, want)
	}
	var small hist
	for v := uint64(0); v < subCount; v++ {
		small.Observe(v)
	}
	if got := small.Quantile(0.5); got < 63 || got > 65 {
		t.Errorf("median of 0..127 = %v, want 64 (exact buckets)", got)
	}
	if got := small.TrimmedMean(1); got != 63.5 {
		t.Errorf("mean of 0..127 = %v, want 63.5 (exact buckets)", got)
	}
	var empty hist
	if got := empty.Quantile(0.99) + empty.TrimmedMean(0.99); got != 0 {
		t.Errorf("empty histogram quantile + trimmed mean = %v, want 0", got)
	}
	// Every bucket's bounds contain the values that map to it, up to the clamp.
	for _, v := range []uint64{0, 127, 128, 255, 256, 1000, 1 << 20, 1<<40 - 1, 1 << 50} {
		lo, width := bucketBounds(bucketOf(v))
		c := float64(min(v, 1<<maxBits-1))
		if c < lo || c >= lo+width {
			t.Errorf("value %d lands in bucket [%v, %v)", v, lo, lo+width)
		}
		if lo >= subCount && width/lo > 1.0/subCount {
			t.Errorf("bucket of %d is %v wide at %v: more than 1/%d", v, width, lo, subCount)
		}
	}
	if n := testing.AllocsPerRun(1000, func() { h.Observe(12345) }); n != 0 {
		t.Errorf("Observe allocates %v times per call", n)
	}
	var a, b hist
	a.Observe(100)
	b.Observe(300)
	b.Observe(300)
	a.Merge(&b)
	if a.n != 3 || a.Quantile(1) < 300 || a.Quantile(1) > 303 {
		t.Errorf("merged histogram: n=%d max=%v", a.n, a.Quantile(1))
	}
}

func TestWindowMedianAndSpread(t *testing.T) {
	if got := median([]float64{9, 1, 5}); got != 5 {
		t.Errorf("median of 3 = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of 4 = %v", got)
	}
	// One window in which a neighbour took the machine does not move the
	// run's value.
	if got := median([]float64{100, 101, 99, 100, 40, 100}); got != 100 {
		t.Errorf("median with an outlier window = %v", got)
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got := iqrShare(xs); math.Abs(got-1) > 1e-12 {
		t.Errorf("iqrShare(1..10) = %v, want (8.25-2.75)/5.5", got)
	}
}

func TestValueCoding(t *testing.T) {
	v := appendValue(nil, 77, 5, 64)
	if ver, ok := decodeValue(v, 77, 64); !ok || ver != 5 {
		t.Fatalf("decode own value: %v %v", ver, ok)
	}
	if _, ok := decodeValue(v, 78, 64); ok {
		t.Error("a value decodes under another key")
	}
	torn := append([]byte(nil), v...)
	copy(torn[8:], appendHex8(nil, 6)) // version of a newer write, filler of the old
	if _, ok := decodeValue(torn, 77, 64); ok {
		t.Error("a torn value decodes")
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// smallConfig shrinks a workload to a 1,024-key data set and windows short
// enough for the tier-1 suite.
func smallConfig(t *testing.T, name string, trace bool) config {
	w, err := workloadByName(name)
	if err != nil {
		t.Fatal(err)
	}
	w.keys, w.region = 1024, 4<<20
	cfg := config{w: w, seed: 1, windows: 2, window: 250 * time.Millisecond, warmup: 1,
		setups: 1, recovers: 1, trace: trace, ladder: 200, outDir: t.TempDir()}
	if trace {
		cfg.windows, cfg.window = 6, 100*time.Millisecond
	}
	return cfg
}

// TestSmoke runs every workload, untraced and traced, and checks that each
// metric BENCHMARK.json names comes out, under a well-formed name, with no
// failed operation.
func TestSmoke(t *testing.T) {
	sp, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range append(append([]metricSpec(nil), sp.EndToEnd...), sp.PerLayer...) {
		if !nameRE.MatchString(m.Name) || m.Unit == "" {
			t.Errorf("metric %q (unit %q) is not well-formed", m.Name, m.Unit)
		}
	}
	if len(sp.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the program has %d", len(sp.Workloads), len(workloads))
	}
	for _, ws := range sp.Workloads {
		for _, trace := range []bool{false, true} {
			t.Run(ws.Name+map[bool]string{false: "", true: "/traced"}[trace], func(t *testing.T) {
				t.Parallel()
				out, err := run(smallConfig(t, ws.Name, trace))
				if err != nil {
					t.Fatal(err)
				}
				if out.failed != 0 || out.attempted == 0 {
					t.Errorf("%d of %d operations failed", out.failed, out.attempted)
				}
				defs := sp.metrics(trace)
				res, err := report(defs, out)
				if err != nil {
					t.Fatal(err)
				}
				for _, d := range defs {
					m, ok := res.Metrics[d.Name]
					if !ok || m.Unit != d.Unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
						t.Errorf("metric %s: got %+v (present=%v), want unit %s", d.Name, m, ok, d.Unit)
					}
				}
				if len(res.Metrics) != len(defs) {
					t.Errorf("%d metrics reported, BENCHMARK.json names %d", len(res.Metrics), len(defs))
				}
			})
		}
	}
}

// TestStaleExpectationTrips proves the post-crash check is not vacuous: the
// same recovered store that passes against the acknowledged versions fails
// against a record that is one write behind.
func TestStaleExpectationTrips(t *testing.T) {
	cfg := smallConfig(t, "sync_write", false)
	sys, err := setUp(cfg.w)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.close()
	ver := newVersions(cfg.w.keys)
	ph, err := sys.runPhase(newClients(sys, 1, ver), 1, 100*time.Millisecond, false)
	if err != nil {
		t.Fatal(err)
	}
	if ph.failed != 0 || ph.writes == 0 {
		t.Fatalf("phase: %d failed, %d writes", ph.failed, ph.writes)
	}
	sys.stopServing()
	images, inflight, err := sys.crashImages(ver)
	if err != nil {
		t.Fatal(err)
	}
	st, err := reopen(cfg.w, images)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if failed := verify(st, cfg.w, ver, inflight); failed != 0 {
		t.Fatalf("%d keys fail against the acknowledged versions", failed)
	}
	stale := newVersions(cfg.w.keys)
	behind := 0
	for id := range ver.acked {
		v := ver.acked[id].Load()
		if v > 0 && uint32(id) != inflight && behind == 0 {
			v-- // as if the last acknowledged write had been forgotten
			behind++
		}
		stale.acked[id].Store(v)
	}
	if failed := verify(st, cfg.w, stale, inflight); failed != 1 {
		t.Errorf("a record one write behind fails %d keys, want 1", failed)
	}
}
