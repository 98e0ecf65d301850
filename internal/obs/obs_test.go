package obs

import (
	"strings"
	"sync"
	"testing"
)

// TestRegistryConcurrent hammers get-or-create, updates, snapshots and
// resets from many goroutines; run with -race. Counter totals are checked
// for a quiet phase where no Reset can interleave.
func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	const (
		goroutines = 16
		iters      = 1000
	)
	names := []string{"alpha_total", "beta_total", "gamma_total"}
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				// Re-resolve every iteration: get-or-create must always
				// return the same instrument for a name.
				r.Counter(names[i%len(names)]).Inc()
				r.Gauge("depth").Add(1)
				r.Histogram("lat_ns").Observe(uint64(g*iters + i))
				if i%100 == 0 {
					r.Snapshot()
				}
			}
		}()
	}
	wg.Wait()

	s := r.Snapshot()
	var total uint64
	for _, n := range names {
		total += s.Counters[n]
	}
	if want := uint64(goroutines * iters); total != want {
		t.Fatalf("counter total = %d, want %d", total, want)
	}
	if got := s.Gauges["depth"]; got != goroutines*iters {
		t.Fatalf("gauge = %d, want %d", got, goroutines*iters)
	}
	if got := s.Histograms["lat_ns"].Count; got != goroutines*iters {
		t.Fatalf("histogram count = %d, want %d", got, goroutines*iters)
	}

	// Same-name lookups must alias: a second handle observes the first's adds.
	c1, c2 := r.Counter("alias"), r.Counter("alias")
	if c1 != c2 {
		t.Fatal("Counter returned distinct instruments for one name")
	}
}

func TestCollector(t *testing.T) {
	r := NewRegistry()
	v := uint64(7)
	r.Collect(func(set Setter) { set("source_total", v) })
	if got := r.Snapshot().Counters["source_total"]; got != 7 {
		t.Fatalf("collector value = %d, want 7", got)
	}
	v = 11
	if got := r.Snapshot().Counters["source_total"]; got != 11 {
		t.Fatalf("collector is not re-run per snapshot: got %d, want 11", got)
	}
}

func TestWriteTextSortedAndStable(t *testing.T) {
	r := NewRegistry()
	r.Counter("z_total").Add(3)
	r.Counter("a_total").Add(1)
	r.Gauge("m_gauge").Set(-2)
	r.Histogram("h").Observe(4)

	var b1, b2 strings.Builder
	if err := r.WriteText(&b1); err != nil {
		t.Fatal(err)
	}
	if err := r.WriteText(&b2); err != nil {
		t.Fatal(err)
	}
	if b1.String() != b2.String() {
		t.Fatal("WriteText output is not stable across calls")
	}
	lines := strings.Split(strings.TrimSpace(b1.String()), "\n")
	for i := 1; i < len(lines); i++ {
		if lines[i-1] >= lines[i] {
			t.Fatalf("output not sorted: %q before %q", lines[i-1], lines[i])
		}
	}
	want := []string{"a_total 1", "h_count 1", "h_max 4", "h_mean 4", "h_p50 4", "h_sum 4", "m_gauge -2", "z_total 3"}
	got := b1.String()
	for _, w := range want {
		if !strings.Contains(got, w) {
			t.Errorf("missing line %q in:\n%s", w, got)
		}
	}
}

func TestWriteJSONDeterministic(t *testing.T) {
	r := NewRegistry()
	r.Counter("b").Add(2)
	r.Counter("a").Add(1)
	r.Histogram("h").Observe(1)
	var b1, b2 strings.Builder
	if err := r.WriteJSON(&b1); err != nil {
		t.Fatal(err)
	}
	if err := r.WriteJSON(&b2); err != nil {
		t.Fatal(err)
	}
	if b1.String() != b2.String() {
		t.Fatal("WriteJSON output differs between identical snapshots")
	}
	if !strings.Contains(b1.String(), `"a": 1`) {
		t.Fatalf("unexpected JSON: %s", b1.String())
	}
}
