package main

import (
	"math/bits"
	"sort"
)

// hist is a fixed-size log-linear latency histogram over nanoseconds: values
// below 2^subBits are exact and larger ones fall into 2^subBits sub-buckets
// per power of two, so a bucket is at most 1/128 wide and a quantile (the
// bucket it falls in, interpolated by rank) is within 0.8% of the sample. It is
// pre-allocated and Observe never allocates: a window's worth of per-sample
// slices was what moved the garbage collector in the first prototype.
const (
	subBits     = 7
	subCount    = 1 << subBits
	maxBits     = 40 // samples of 2^40 ns (18 min) and more clamp to the top bucket
	histBuckets = subCount * (maxBits - subBits + 1)
)

type hist struct {
	n uint64
	b [histBuckets]uint32
}

func bucketOf(v uint64) int {
	if v < subCount {
		return int(v)
	}
	if v >= 1<<maxBits {
		v = 1<<maxBits - 1
	}
	e := bits.Len64(v) - (subBits + 1) // v>>e is in [subCount, 2*subCount)
	return e*subCount + int(v>>uint(e))
}

// bucketBounds returns the lowest value of bucket i and the bucket's width.
func bucketBounds(i int) (lo, width float64) {
	if i < 2*subCount {
		return float64(i), 1
	}
	e := uint(i/subCount - 1)
	return float64(uint64(i%subCount+subCount) << e), float64(uint64(1) << e)
}

func (h *hist) Observe(ns uint64) {
	h.b[bucketOf(ns)]++
	h.n++
}

func (h *hist) Merge(o *hist) {
	h.n += o.n
	for i := range o.b {
		h.b[i] += o.b[i]
	}
}

// Quantile returns the q-quantile in nanoseconds, 0 for an empty histogram.
// Within the bucket that holds the rank it interpolates by rank, so the
// result moves smoothly instead of in bucket-sized steps.
func (h *hist) Quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := min(max(q*float64(h.n), 1), float64(h.n))
	var seen float64
	for i := range h.b {
		c := h.b[i]
		if c > 0 && seen+float64(c) >= rank {
			lo, width := bucketBounds(i)
			return lo + width*(rank-seen)/float64(c)
		}
		seen += float64(c)
	}
	lo, width := bucketBounds(histBuckets - 1)
	return lo + width
}

// TrimmedMean returns the mean, in nanoseconds, of the fastest share q of the
// samples (each taken at the middle of its bucket); 0 for an empty histogram.
func (h *hist) TrimmedMean(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	keep := min(max(q*float64(h.n), 1), float64(h.n))
	var seen, sum float64
	for i := range h.b {
		if seen >= keep {
			break
		}
		if c := float64(h.b[i]); c > 0 {
			lo, width := bucketBounds(i)
			take := min(c, keep-seen)
			sum += take * (lo + (width-1)/2) // a bucket holds the integers lo .. lo+width-1
			seen += take
		}
	}
	return sum / seen
}

// median of xs (mean of the middle two for an even count); 0 when empty.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// iqrShare is the distance between the first and third quartile of xs as a
// share of their median, by the same rule as Python's
// statistics.quantiles(xs, n=4) (exclusive method), which the driver uses.
func iqrShare(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(k int) float64 { // k-th of 4 quantile cut points
		pos := float64(k*(n+1)) / 4
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		d := pos - float64(j)
		return s[j-1] + d*(s[j]-s[j-1])
	}
	m := median(s)
	if m == 0 {
		return 0
	}
	return (at(3) - at(1)) / m
}
