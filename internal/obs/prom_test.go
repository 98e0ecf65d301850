package obs

import (
	"bytes"
	"strings"
	"testing"
)

// TestWritePromGolden pins the Prometheus exposition byte-for-byte: TYPE
// lines, sorted families, cumulative le buckets derived from the log-linear
// per-bucket counts, and the +Inf/_sum/_count triple.
func TestWritePromGolden(t *testing.T) {
	r := NewRegistry()
	r.Counter("beta_total").Add(7)
	r.Counter("alpha_total").Add(2)
	r.Gauge("live_conns").Set(3)
	h := r.Histogram("lat_ns")
	h.Observe(0) // exported buckets are exact below 8: le is the value
	h.Observe(1)
	h.Observe(1)
	h.Observe(5)
	h.Observe(6)
	h.Observe(300) // exported 4 per power of two: [256, 320) has le="319"
	h.Observe(310)

	var buf bytes.Buffer
	if err := r.WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	want := strings.Join([]string{
		"# TYPE alpha_total counter",
		"alpha_total 2",
		"# TYPE beta_total counter",
		"beta_total 7",
		"# TYPE live_conns gauge",
		"live_conns 3",
		"# TYPE lat_ns histogram",
		`lat_ns_bucket{le="0"} 1`,
		`lat_ns_bucket{le="1"} 3`,
		`lat_ns_bucket{le="5"} 4`,
		`lat_ns_bucket{le="6"} 5`,
		`lat_ns_bucket{le="319"} 7`,
		`lat_ns_bucket{le="+Inf"} 7`,
		"lat_ns_sum 623",
		"lat_ns_count 7",
	}, "\n") + "\n"
	if buf.String() != want {
		t.Errorf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", buf.String(), want)
	}
}

// TestWritePromTopBucket pins that the maximal bucket renders as a finite
// edge distinct from the explicit +Inf line, so scrapers never see a
// duplicate label.
func TestWritePromTopBucket(t *testing.T) {
	r := NewRegistry()
	r.Histogram("big").Observe(^uint64(0))
	var buf bytes.Buffer
	if err := r.WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if strings.Count(out, `le="+Inf"`) != 1 {
		t.Fatalf("want exactly one +Inf bucket:\n%s", out)
	}
	if !strings.Contains(out, `big_bucket{le="1.8446744073709552e+19"} 1`) {
		t.Fatalf("maximal bucket missing finite edge:\n%s", out)
	}
}

// TestWritePromCollector pins that collector-contributed values expose as
// counters like live ones.
func TestWritePromCollector(t *testing.T) {
	r := NewRegistry()
	r.Collect(func(set Setter) { set("dev_pwb_total", 11) })
	var buf bytes.Buffer
	if err := r.WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "# TYPE dev_pwb_total counter\ndev_pwb_total 11\n") {
		t.Fatalf("collector value missing:\n%s", buf.String())
	}
}
