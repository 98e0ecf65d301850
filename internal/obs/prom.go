package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
)

// WriteProm renders the snapshot in the Prometheus text exposition format
// (version 0.0.4): every live counter (and collector value) as TYPE
// counter, gauges as TYPE gauge, histograms as TYPE histogram with
// cumulative `le` buckets plus _sum and _count. Metric families are sorted
// by name, so the output is deterministic and golden-testable.
//
// The registry's snapshot lists per-bucket counts under each exported
// bucket's inclusive upper edge (exact below 8, then 4 per power of two; see
// exportBits); Prometheus buckets are cumulative, so the per-bucket counts
// are summed here. Empty buckets are elided — the cumulative sums lose
// nothing — so the exposition grows with the occupied buckets, at most 4
// lines per power of two the samples span.
func (r *Registry) WriteProm(w io.Writer) error {
	s := r.Snapshot()
	var b strings.Builder

	names := make([]string, 0, len(s.Counters))
	for name := range s.Counters {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(&b, "# TYPE %s counter\n%s %d\n", name, name, s.Counters[name])
	}

	names = names[:0]
	for name := range s.Gauges {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(&b, "# TYPE %s gauge\n%s %d\n", name, name, s.Gauges[name])
	}

	names = names[:0]
	for name := range s.Histograms {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		h := s.Histograms[name]
		fmt.Fprintf(&b, "# TYPE %s histogram\n", name)
		cum := uint64(0)
		for _, bk := range h.Buckets {
			if bk.Count == 0 {
				continue
			}
			cum += bk.Count
			fmt.Fprintf(&b, "%s_bucket{le=\"%s\"} %d\n", name, promLe(bk.Le), cum)
		}
		fmt.Fprintf(&b, "%s_bucket{le=\"+Inf\"} %d\n", name, h.Count)
		fmt.Fprintf(&b, "%s_sum %d\n%s_count %d\n", name, h.Sum, name, h.Count)
	}

	_, err := io.WriteString(w, b.String())
	return err
}

// promLe renders a bucket's inclusive upper edge. The histogram's top
// bucket stores ^uint64(0) as its edge; Prometheus spells that "+Inf", and
// emitting it here would shadow the explicit +Inf line, so it is rendered
// as the true maximal value (it can only carry observations of 2^63 and
// up, which no latency or count metric produces).
func promLe(le uint64) string {
	if le == math.MaxUint64 {
		return "1.8446744073709552e+19"
	}
	return fmt.Sprintf("%d", le)
}
