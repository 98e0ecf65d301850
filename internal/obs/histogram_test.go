package obs

import (
	"math"
	"math/bits"
	"slices"
	"sync"
	"testing"
	"testing/quick"
)

// TestBucketBoundaries pins the log-linear bucketing: values below 256 have a
// bucket each, every power of two above opens 128 equal sub-buckets, samples
// of 2^40 and up share the unbounded top bucket, and every bucket's half-open
// range [lo, hi) round-trips through bucketBounds.
func TestBucketBoundaries(t *testing.T) {
	cases := []struct {
		v      uint64
		bucket int
	}{
		{0, 0}, {1, 1}, {127, 127}, {128, 128}, {255, 255},
		{256, 256}, {257, 256}, {258, 257}, {511, 383},
		{512, 384}, {515, 384}, {516, 385},
		{1 << 20, 13*128 + 128}, {1<<21 - 1, 13*128 + 255},
		{1<<40 - 1, numBuckets - 2}, {1 << 40, numBuckets - 1},
		{1 << 63, numBuckets - 1}, {^uint64(0), numBuckets - 1},
	}
	for _, c := range cases {
		if got := bucketIndex(c.v); got != c.bucket {
			t.Errorf("bucketIndex(%d) = %d, want %d", c.v, got, c.bucket)
		}
		lo, hi := bucketBounds(c.bucket)
		if c.v < lo {
			t.Errorf("value %d below bucket %d range [%d, %d)", c.v, c.bucket, lo, hi)
		}
		if hi != 0 && c.v >= hi {
			t.Errorf("value %d at/above bucket %d upper bound %d", c.v, c.bucket, hi)
		}
	}
	// Ranges tile with no gap, each at most 1/128 of its lower edge wide.
	for i := 0; i < numBuckets-1; i++ {
		lo, hi := bucketBounds(i)
		next, _ := bucketBounds(i + 1)
		if hi != next {
			t.Errorf("gap between bucket %d (hi %d) and %d (lo %d)", i, hi, i+1, next)
		}
		if i >= 2*subCount && (hi-lo)*subCount > lo {
			t.Errorf("bucket %d [%d, %d) wider than 1/%d of its edge", i, lo, hi, subCount)
		}
	}
	if _, hi := bucketBounds(numBuckets - 1); hi != 0 {
		t.Errorf("top bucket hi = %d, want 0 (unbounded)", hi)
	}
}

func TestHistogramSnapshotEdges(t *testing.T) {
	var h Histogram
	for _, v := range []uint64{0, 1, 2, 3, 4, 1023, 1024} {
		h.Observe(v)
	}
	s := h.Snapshot()
	if s.Count != 7 || s.Sum != 0+1+2+3+4+1023+1024 || s.Max != 1024 {
		t.Fatalf("count/sum/max = %d/%d/%d", s.Count, s.Sum, s.Max)
	}
	// Below 256 each value is its own edge; 1023 lands in [1020, 1024) and
	// 1024 in [1024, 1032).
	want := map[uint64]uint64{0: 1, 1: 1, 2: 1, 3: 1, 4: 1, 1023: 1, 1031: 1}
	if len(s.Buckets) != len(want) {
		t.Fatalf("buckets = %+v, want edges %v", s.Buckets, want)
	}
	prev := int64(-1)
	for _, b := range s.Buckets {
		if want[b.Le] != b.Count {
			t.Errorf("bucket le=%d count=%d, want %d", b.Le, b.Count, want[b.Le])
		}
		if int64(b.Le) <= prev {
			t.Errorf("buckets not ascending at le=%d", b.Le)
		}
		prev = int64(b.Le)
	}
}

// A registry exports 4 buckets per power of two: each exported bucket's
// cumulative count is exact at its edge, and a spread latency series keeps
// its /metrics exposition short.
func TestExportedBuckets(t *testing.T) {
	var h Histogram
	var samples []uint64
	for v := uint64(0); v < 20_000_000; v = v*11/10 + 1 {
		for i := uint64(0); i < v%3+1; i++ {
			h.Observe(v)
			samples = append(samples, v)
		}
	}
	fine, exp := h.Snapshot(), h.Snapshot().exported()
	if len(exp.Buckets) >= len(fine.Buckets) || len(exp.Buckets) > 2<<exportBits+(1<<exportBits)*25 {
		t.Errorf("exported %d buckets from %d fine ones", len(exp.Buckets), len(fine.Buckets))
	}
	cum := uint64(0)
	for i, b := range exp.Buckets {
		cum += b.Count
		want := uint64(0)
		for _, v := range samples {
			if v <= b.Le {
				want++
			}
		}
		if cum != want {
			t.Fatalf("exported le=%d: cumulative %d, want %d samples", b.Le, cum, want)
		}
		if i > 0 && b.Le <= exp.Buckets[i-1].Le {
			t.Fatalf("exported buckets not ascending at le=%d", b.Le)
		}
		// Above the exact range an exported edge closes a quarter of a
		// power of two.
		if w := uint64(1) << max(bits.Len64(b.Le)-1-exportBits, 0); b.Le >= 2<<exportBits && (b.Le+1)%w != 0 {
			t.Errorf("exported le=%d is not an edge of the 4-per-power-of-two layout", b.Le)
		}
	}
	if cum != fine.Count || exp.Count != fine.Count || exp.P99 != fine.P99 {
		t.Errorf("exported snapshot changed totals: %+v vs %+v", exp, fine)
	}

	// One full power of two exports as exactly four buckets.
	var oct Histogram
	for v := uint64(256); v < 512; v++ {
		oct.Observe(v)
	}
	want := []BucketCount{{319, 64}, {383, 64}, {447, 64}, {511, 64}}
	if got := oct.Snapshot().exported().Buckets; !slices.Equal(got, want) {
		t.Errorf("exported [256, 512) = %v, want %v", got, want)
	}
}

// A snapshot is a copy: later samples do not reach it.
func TestHistogramSnapshotIsIndependent(t *testing.T) {
	var h Histogram
	h.Observe(7)
	s := h.Snapshot()
	h.Observe(7)
	if s.Count != 1 || len(s.Buckets) != 1 || s.Buckets[0].Count != 1 || h.Count() != 2 {
		t.Errorf("snapshot shares state with the histogram: %+v, live count %d", s, h.Count())
	}
}

func TestHistogramEmpty(t *testing.T) {
	var h Histogram
	if h.Count() != 0 || h.Sum() != 0 || h.mean() != 0 || h.quantile(0.5) != 0 || h.max.Load() != 0 {
		t.Error("empty histogram not zero")
	}
	if s := h.Snapshot(); s.Count != 0 || len(s.Buckets) != 0 {
		t.Errorf("empty snapshot = %+v", s)
	}
}

// Small samples are exact: count, mean, max and every quantile read back the
// sample values themselves.
func TestHistogramBasicStats(t *testing.T) {
	var h Histogram
	for _, v := range []uint64{1, 2, 3, 4, 100} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Errorf("Count = %d", h.Count())
	}
	if h.mean() != 22 {
		t.Errorf("Mean = %f", h.mean())
	}
	if h.max.Load() != 100 {
		t.Errorf("Max = %d", h.max.Load())
	}
	for _, c := range []struct {
		q    float64
		want uint64
	}{{0, 1}, {0.5, 3}, {1, 100}} {
		if got := h.quantile(c.q); got != c.want {
			t.Errorf("q%v = %d, want %d", c.q, got, c.want)
		}
	}
}

// TestQuantileUpperBound checks that Quantile returns the inclusive upper
// edge of the bucket holding the q-th sample, capped at Max, and that it is
// always an upper bound for the true quantile.
func TestQuantileUpperBound(t *testing.T) {
	var h Histogram
	// 100 samples of value 4 (exact bucket) and one of 1000 (bucket
	// [1000, 1004), capped at the maximum 1000).
	for i := 0; i < 100; i++ {
		h.Observe(4)
	}
	h.Observe(1000)
	for _, c := range []struct {
		q    float64
		want uint64
	}{{0, 4}, {0.5, 4}, {0.99, 4}, {1, 1000}} {
		if got := h.quantile(c.q); got != c.want {
			t.Errorf("q%v = %d, want %d", c.q, got, c.want)
		}
	}
	h.Observe(1001)
	if got := h.quantile(0.99); got != 1001 {
		t.Errorf("p99 = %d, want 1001 (bucket edge 1003 capped at max)", got)
	}

	var empty Histogram
	if got := empty.quantile(0.5); got != 0 {
		t.Errorf("empty p50 = %d, want 0", got)
	}

	// The top bucket has no finite upper edge; Quantile falls back to Max.
	var top Histogram
	top.Observe(1 << 63)
	if got := top.quantile(0.5); got != 1<<63 {
		t.Errorf("top-bucket p50 = %d, want 2^63 (Max fallback)", got)
	}
}

// TestQuantileResolution is the reading a power-of-two layout cannot give:
// for samples spread evenly over 10–20 ms it reported its bucket edges,
// p50 = 16.8 ms and p99 = 33.6 ms. Here p50 and p99 each land within 0.8%
// above the true quantile.
func TestQuantileResolution(t *testing.T) {
	var h Histogram
	const lo, hi = 10_000_000, 20_000_000
	for v := uint64(lo); v < hi; v += 1000 {
		h.Observe(v)
	}
	for _, q := range []float64{0.5, 0.99} {
		truth := lo + q*(hi-lo)
		got := float64(h.quantile(q))
		if got < truth-1000 || got > truth*(1+1.0/subCount) {
			t.Errorf("q%v = %.0f, want within [%.0f, %.0f]", q, got, truth, truth*(1+1.0/subCount))
		}
	}
	if h.quantile(0.5) == h.quantile(0.99) {
		t.Error("p50 == p99 on a spread distribution")
	}
}

// Property: count, sum, max, mean and the order of the quantiles are
// consistent with the sample multiset, and the 1-quantile is the maximum.
func TestQuickStatsConsistent(t *testing.T) {
	f := func(raw []uint32) bool {
		var h Histogram
		var sum, maxV uint64
		for _, v := range raw {
			h.Observe(uint64(v))
			sum += uint64(v)
			maxV = max(maxV, uint64(v))
		}
		if h.Count() != uint64(len(raw)) || h.Sum() != sum || h.max.Load() != maxV {
			return false
		}
		if len(raw) == 0 {
			return h.quantile(0.5) == 0
		}
		if h.mean() != float64(sum)/float64(len(raw)) {
			return false
		}
		return h.quantile(0) <= h.quantile(0.5) && h.quantile(0.5) <= h.quantile(1) &&
			h.quantile(1) == maxV
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Observe and a batched span emission allocate nothing.
func TestObserveAllocs(t *testing.T) {
	var h Histogram
	v := uint64(1)
	if n := testing.AllocsPerRun(1000, func() { h.Observe(v); v = v*3 + 1 }); n != 0 {
		t.Errorf("Observe allocates %.1f per call", n)
	}
	r := NewSpanRecorder(nil, 64)
	evs := []SpanEvent{{Phase: PhaseParse, DurNs: 10}, {Phase: PhaseRequest, DurNs: math.MaxUint32}}
	if n := testing.AllocsPerRun(1000, func() { r.EmitBatch(evs) }); n != 0 {
		t.Errorf("EmitBatch allocates %.1f per call", n)
	}
}

func TestHistogramConcurrentObserve(t *testing.T) {
	var h Histogram
	const goroutines, iters = 8, 10000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				h.Observe(uint64(g + 1))
			}
		}()
	}
	wg.Wait()
	if got := h.Count(); got != goroutines*iters {
		t.Fatalf("count = %d, want %d", got, goroutines*iters)
	}
	if got := h.max.Load(); got != goroutines {
		t.Fatalf("max = %d, want %d", got, goroutines)
	}
}
