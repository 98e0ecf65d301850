package bench

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/obs"
)

// The §6.2 histogram analysis must show the paper's qualitative contrast:
// the linked list's per-transaction pwb distribution is tighter and lower
// than the red-black tree's.
func TestPwbHistograms(t *testing.T) {
	out, err := PwbHistograms(200, 300)
	if err != nil {
		t.Fatal(err)
	}
	for _, ds := range DSKinds {
		if !strings.Contains(out, ds) {
			t.Errorf("output missing %s section", ds)
		}
	}
	if !strings.Contains(out, "histogram peaks") {
		t.Error("output missing peak analysis")
	}
}

// modes finds the peaks of a distribution, largest first: here the paper's
// red-black tree shape, two clear peaks at 50 and 130 over a sparse
// background.
func TestPwbModesFindsTwoPeaks(t *testing.T) {
	var h obs.Histogram
	for i := 0; i < 100; i++ {
		h.Observe(50)
	}
	for i := 0; i < 80; i++ {
		h.Observe(130)
	}
	for v := uint64(10); v < 200; v += 7 {
		h.Observe(v)
	}
	if got := modes(h.Snapshot(), 2, 20); !slices.Equal(got, []uint64{50, 130}) {
		t.Errorf("modes = %v, want [50 130]", got)
	}
	var b strings.Builder
	writeChart(&b, h.Snapshot())
	if !strings.HasPrefix(b.String(), "n=208 ") || strings.Count(b.String(), "\n") != 17 {
		t.Errorf("chart:\n%s", b.String())
	}
}

// A candidate within minGap of a peak already found is not a second peak,
// even when it outweighs the next one.
func TestPwbModesRespectsGap(t *testing.T) {
	var h obs.Histogram
	for i := 0; i < 10; i++ {
		h.Observe(50)
	}
	for i := 0; i < 9; i++ {
		h.Observe(52) // within the gap of 50
	}
	for i := 0; i < 8; i++ {
		h.Observe(200)
	}
	if got := modes(h.Snapshot(), 2, 20); !slices.Equal(got, []uint64{50, 200}) {
		t.Errorf("modes = %v, want [50 200]", got)
	}
}
