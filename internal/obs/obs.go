// Package obs is the repository's observability layer: a metrics registry,
// request spans and the collector helpers shared by the serving stack, with
// a single schema documented in docs/OBSERVABILITY.md.
//
// The paper's entire evaluation (§6) is driven by counting persistence
// events — pwbs and fences per transaction, write amplification, abort and
// retry behaviour. The device counts them once (pmem.Device.Stats); a
// caller that wants one transaction's cost reads the counters' delta across
// the call. This package publishes such counts without ad-hoc per-tool
// plumbing:
//
//   - Registry holds named atomic counters, gauges and log-linear
//     histograms. Hot paths obtain a *Counter or *Histogram once and then
//     update it with a single atomic add — no map lookups, no allocation.
//     Collectors contribute point-in-time values (such as pmem.Device
//     counters) lazily at snapshot time, so instrumented data paths pay
//     nothing at all.
//   - SetDevices and SetRecovery publish the pmem_* space gauges and the
//     ptm_recovery_* gauges from inside a collector (the sharded store's).
//   - SpanRecorder retains per-request phase spans and folds them into the
//     net_span_* histograms.
//
// Concurrency: all Registry instruments and SpanRecorder are safe for
// concurrent use.
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter. The zero value is
// ready to use; obtain shared instances from a Registry.
type Counter struct {
	v atomic.Uint64
}

// Add increments the counter by n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Load returns the current value.
func (c *Counter) Load() uint64 { return c.v.Load() }

func (c *Counter) reset() { c.v.Store(0) }

// Gauge is an atomic instantaneous value (e.g. bytes currently in use).
type Gauge struct {
	v atomic.Int64
}

// Set replaces the gauge value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adjusts the gauge by delta (may be negative).
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Load returns the current value.
func (g *Gauge) Load() int64 { return g.v.Load() }

func (g *Gauge) reset() { g.v.Store(0) }

// Setter publishes one collector-supplied counter value into a snapshot.
type Setter func(name string, v uint64)

// Registry is a namespace of counters, gauges and histograms plus lazy
// collectors. The zero value is not usable; create one with NewRegistry.
//
// Instrument lookups (Counter, Gauge, Histogram) take a mutex and are meant
// for setup time; the returned instruments are lock-free.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	hists      map[string]*Histogram
	collectors []func(Setter)
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// Collect registers fn to contribute point-in-time counter values whenever
// the registry is snapshotted. Collector-published names share the counter
// namespace; live counters with the same name are shadowed.
func (r *Registry) Collect(fn func(Setter)) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.collectors = append(r.collectors, fn)
}

// Reset zeroes every registered counter, gauge and histogram. Collectors
// are not touched: their sources (device stats, engine tx counters) own
// their own reset.
func (r *Registry) Reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, c := range r.counters {
		c.reset()
	}
	for _, g := range r.gauges {
		g.reset()
	}
	for _, h := range r.hists {
		h.Reset()
	}
}

// Snapshot is a point-in-time copy of a registry's values, suitable for
// rendering or JSON encoding. Map keys are metric names.
type Snapshot struct {
	Counters   map[string]uint64            `json:"counters"`
	Gauges     map[string]int64             `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

// Snapshot captures every instrument and runs the collectors. Histogram
// buckets come merged to the export layout (see exportBits).
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	counters := make(map[string]uint64, len(r.counters))
	for name, c := range r.counters {
		counters[name] = c.Load()
	}
	var gauges map[string]int64
	if len(r.gauges) > 0 {
		gauges = make(map[string]int64, len(r.gauges))
		for name, g := range r.gauges {
			gauges[name] = g.Load()
		}
	}
	var hists map[string]HistogramSnapshot
	if len(r.hists) > 0 {
		hists = make(map[string]HistogramSnapshot, len(r.hists))
		for name, h := range r.hists {
			hists[name] = h.Snapshot().exported()
		}
	}
	collectors := r.collectors
	r.mu.Unlock()
	// Collectors run outside the registry lock: they read foreign state
	// (device stats, engine counters) that must not nest under r.mu.
	set := func(name string, v uint64) { counters[name] = v }
	for _, fn := range collectors {
		fn(set)
	}
	return Snapshot{Counters: counters, Gauges: gauges, Histograms: hists}
}

// WriteJSON writes the snapshot as a single indented JSON object. Go
// marshals map keys in sorted order, so the output is deterministic.
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshot())
}

// WriteText renders the snapshot as sorted "name value" lines, one metric
// per line, in the expvar/Prometheus exposition spirit. Histograms expand
// into _count, _sum, _max, _mean, _p50 and _p99 lines.
func (r *Registry) WriteText(w io.Writer) error {
	s := r.Snapshot()
	var lines []string
	for name, v := range s.Counters {
		lines = append(lines, fmt.Sprintf("%s %d", name, v))
	}
	for name, v := range s.Gauges {
		lines = append(lines, fmt.Sprintf("%s %d", name, v))
	}
	for name, h := range s.Histograms {
		lines = append(lines,
			fmt.Sprintf("%s_count %d", name, h.Count),
			fmt.Sprintf("%s_sum %d", name, h.Sum),
			fmt.Sprintf("%s_max %d", name, h.Max),
			fmt.Sprintf("%s_mean %s", name, trimFloat(h.Mean)),
			fmt.Sprintf("%s_p50 %d", name, h.P50),
			fmt.Sprintf("%s_p99 %d", name, h.P99),
		)
	}
	sort.Strings(lines)
	_, err := io.WriteString(w, strings.Join(lines, "\n")+"\n")
	return err
}

// trimFloat formats a mean with two decimals, trimming trailing zeros so
// integral means render as plain integers.
func trimFloat(f float64) string {
	s := fmt.Sprintf("%.2f", f)
	s = strings.TrimRight(s, "0")
	return strings.TrimRight(s, ".")
}
