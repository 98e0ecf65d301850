package obs

import (
	"math/bits"
	"sync/atomic"
)

// Histogram layout: log-linear, the layout of the repository benchmark's
// latency histogram (benchmarks/hist.go) plus an overflow bucket. Samples
// below 2*subCount are exact (one bucket per value); above that every power
// of two up to 2^maxBits is split into subCount equal sub-buckets, so a
// bucket is at most 1/subCount of its lower edge wide and a quantile read off
// its upper edge is at most 0.8% high. Samples of 2^maxBits (18 minutes in
// nanoseconds) and more share the top bucket, which has no upper edge.
const (
	subBits    = 7
	subCount   = 1 << subBits
	maxBits    = 40
	numBuckets = subCount*(maxBits-subBits+1) + 1
)

// exportBits sets how finely a Registry exports a histogram: its snapshot
// merges the buckets into 2^exportBits per power of two (exact below
// 2^(exportBits+1), each at most a quarter of its lower edge wide above), so
// a latency series spanning ten powers of two puts at most 40 `le` lines on
// /metrics instead of 1,280. Each exported bucket holds whole fine buckets,
// so its cumulative count is exact. Count, sum, max, mean and the quantiles
// still come from the fine buckets.
const exportBits = 2

// Histogram is a lock-free log-linear histogram for latency, size and count
// distributions. Observe is a handful of atomic adds — no allocation, no
// locking. Small counts (the per-transaction pwbs of the paper's §6.2
// analysis, below 256) land in exact buckets; nanosecond latencies land in
// buckets within 0.8% of the sample.
//
// The zero value is ready to use; obtain shared instances from a Registry.
type Histogram struct {
	buckets [numBuckets]atomic.Uint64
	count   atomic.Uint64
	sum     atomic.Uint64
	max     atomic.Uint64
}

// bucketIndex returns the bucket holding sample v.
func bucketIndex(v uint64) int {
	if v < subCount {
		return int(v)
	}
	if v >= 1<<maxBits {
		return numBuckets - 1
	}
	e := bits.Len64(v) - (subBits + 1) // v>>e is in [subCount, 2*subCount)
	return e*subCount + int(v>>uint(e))
}

// bucketBounds returns the half-open sample range [lo, hi) of bucket i. For
// the top bucket hi is 0 and means "no upper bound".
func bucketBounds(i int) (lo, hi uint64) {
	if i < 2*subCount {
		return uint64(i), uint64(i) + 1
	}
	if i == numBuckets-1 {
		return 1 << maxBits, 0
	}
	e := uint(i/subCount - 1)
	m := uint64(i%subCount + subCount)
	return m << e, (m + 1) << e
}

// Observe records one sample.
func (h *Histogram) Observe(v uint64) {
	h.buckets[bucketIndex(v)].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
	h.raiseMax(v)
}

func (h *Histogram) raiseMax(v uint64) {
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			return
		}
	}
}

// histAccum folds a batch of samples destined for one Histogram locally: the
// count, sum and max, and each run of consecutive samples in one bucket, so
// the batch pays one atomic per run plus three instead of four per sample.
// The span recorder's EmitBatch uses one per phase. The requests of one
// committed batch share their batch_form, psync_wait and reply_flush
// durations, so each of those phases is one run per burst.
type histAccum struct {
	h               *Histogram
	count, sum, max uint64
	bucket          int    // bucket of the current run
	run             uint64 // samples in the current run, not yet published
}

func (a *histAccum) add(v uint64) {
	a.count++
	a.sum += v
	a.max = max(a.max, v)
	b := bucketIndex(v)
	if a.run > 0 && b != a.bucket {
		a.h.buckets[a.bucket].Add(a.run)
		a.run = 0
	}
	a.bucket = b
	a.run++
}

// flush publishes everything folded so far.
func (a *histAccum) flush() {
	if a.count == 0 {
		return
	}
	a.h.buckets[a.bucket].Add(a.run)
	a.h.count.Add(a.count)
	a.h.sum.Add(a.sum)
	a.h.raiseMax(a.max)
}

// Count returns the number of samples recorded.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all samples.
func (h *Histogram) Sum() uint64 { return h.sum.Load() }

// mean returns the average sample, or 0 when empty.
func (h *Histogram) mean() float64 {
	c := h.count.Load()
	if c == 0 {
		return 0
	}
	return float64(h.sum.Load()) / float64(c)
}

// quantile returns an upper bound for the q-quantile (0 <= q <= 1): the
// inclusive upper edge of the bucket holding the q-th sample, capped at Max
// — exact for samples in the exact range. Concurrent Observe calls may skew
// the answer by the in-flight samples.
func (h *Histogram) quantile(q float64) uint64 {
	c := h.count.Load()
	if c == 0 {
		return 0
	}
	q = min(max(q, 0), 1)
	target := min(uint64(q*float64(c)), c-1)
	var seen uint64
	for i := range h.buckets {
		seen += h.buckets[i].Load()
		if seen > target {
			_, hi := bucketBounds(i)
			return min(hi-1, h.max.Load()) // the top bucket's hi-1 wraps to MaxUint64
		}
	}
	return h.max.Load()
}

// HistogramSnapshot is a point-in-time summary of a Histogram, with the
// non-empty buckets listed in ascending order.
type HistogramSnapshot struct {
	Count uint64  `json:"count"`
	Sum   uint64  `json:"sum"`
	Max   uint64  `json:"max"`
	Mean  float64 `json:"mean"`
	P50   uint64  `json:"p50"`
	P99   uint64  `json:"p99"`
	// Buckets lists each non-empty bucket by its inclusive upper edge.
	Buckets []BucketCount `json:"buckets,omitempty"`
}

// BucketCount is one non-empty histogram bucket.
type BucketCount struct {
	// Le is the inclusive upper sample bound of the bucket: the sample
	// itself in the exact range, MaxUint64 for the top bucket.
	Le    uint64 `json:"le"`
	Count uint64 `json:"count"`
}

// Snapshot summarizes the histogram. Taken bucket-by-bucket without a lock;
// concurrent Observe calls may leave the totals ahead of the buckets by the
// in-flight samples.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Count: h.Count(),
		Sum:   h.Sum(),
		Max:   h.max.Load(),
		Mean:  h.mean(),
		P50:   h.quantile(0.5),
		P99:   h.quantile(0.99),
	}
	for i := range h.buckets {
		if c := h.buckets[i].Load(); c != 0 {
			_, hi := bucketBounds(i)
			s.Buckets = append(s.Buckets, BucketCount{Le: hi - 1, Count: c})
		}
	}
	return s
}

// exported returns s with its buckets merged to the export layout (see
// exportBits).
func (s HistogramSnapshot) exported() HistogramSnapshot {
	var out []BucketCount
	for _, b := range s.Buckets {
		le := b.Le
		if le >= 2<<exportBits {
			le |= 1<<(bits.Len64(le)-1-exportBits) - 1
		}
		if n := len(out); n > 0 && out[n-1].Le == le {
			out[n-1].Count += b.Count
		} else {
			out = append(out, BucketCount{Le: le, Count: b.Count})
		}
	}
	s.Buckets = out
	return s
}
