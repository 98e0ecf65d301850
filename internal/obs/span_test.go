package obs

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"
)

// TestSpanRecorderRingAndByReq pins ring retention and the per-request
// timeline join.
func TestSpanRecorderRingAndByReq(t *testing.T) {
	reg := NewRegistry()
	r := NewSpanRecorder(reg, 4)
	r.EmitBatch([]SpanEvent{{Req: 1, Phase: PhaseParse, DurNs: 10}})
	r.EmitBatch([]SpanEvent{{Req: 1, Phase: PhaseRequest, DurNs: 50}})
	r.EmitBatch([]SpanEvent{{Req: 2, Phase: PhaseParse, DurNs: 20}})
	if got := r.ByReq(1); len(got) != 2 || got[0].Phase != PhaseParse || got[1].Phase != PhaseRequest {
		t.Fatalf("ByReq(1) = %+v", got)
	}
	// Overflow the 4-slot ring; req 1's spans are evicted.
	for i := 0; i < 4; i++ {
		r.EmitBatch([]SpanEvent{{Req: 3, Phase: PhaseQueueWait, DurNs: 1}})
	}
	if got := r.ByReq(1); len(got) != 0 {
		t.Fatalf("ByReq(1) after eviction = %+v, want empty", got)
	}
	if r.total != 7 {
		t.Fatalf("total = %d, want 7", r.total)
	}

	// Each phase fed its histogram.
	s := reg.Snapshot()
	if c := s.Histograms["net_span_parse_ns"].Count; c != 2 {
		t.Errorf("net_span_parse_ns count = %d, want 2", c)
	}
	if c := s.Histograms["net_span_queue_wait_ns"].Count; c != 4 {
		t.Errorf("net_span_queue_wait_ns count = %d, want 4", c)
	}
	if c := s.Histograms["net_span_request_ns"].Count; c != 1 {
		t.Errorf("net_span_request_ns count = %d, want 1", c)
	}
}

// TestSpanRecorderConcurrentEmit exercises EmitBatch from many goroutines under
// the race detector.
func TestSpanRecorderConcurrentEmit(t *testing.T) {
	r := NewSpanRecorder(nil, 64)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				r.EmitBatch([]SpanEvent{{Req: uint64(g*1000 + i), Phase: PhasePsyncWait, DurNs: uint64(i)}})
			}
		}(g)
	}
	wg.Wait()
	if r.total != 1600 {
		t.Fatalf("total = %d, want 1600", r.total)
	}
	if got := len(r.events()); got != 64 {
		t.Fatalf("retained %d events, want 64", got)
	}
}

// pipelinedBurst is one flushed burst of 16 pipelined requests, six phases
// each: parse, queue_wait and request durations differ per request, while the
// requests of the one committed batch share batch_form, psync_wait and
// reply_flush.
func pipelinedBurst(seed int64) []SpanEvent {
	rng := rand.New(rand.NewSource(seed))
	shared := map[string]uint64{
		PhaseBatchForm:  uint64(300 + rng.Intn(600)),
		PhasePsyncWait:  uint64(1500 + rng.Intn(3000)),
		PhaseReplyFlush: uint64(3000 + rng.Intn(6000)),
	}
	var evs []SpanEvent
	for r := uint64(0); r < 16; r++ {
		for _, ph := range []string{PhaseParse, PhaseQueueWait, PhaseBatchForm, PhasePsyncWait, PhaseReplyFlush, PhaseRequest} {
			d, ok := shared[ph]
			if !ok {
				d = uint64(200 + rng.Intn(20000))
			}
			evs = append(evs, SpanEvent{Req: r, Phase: ph, DurNs: d})
		}
	}
	return evs
}

// EmitBatch's local folding loses nothing: every phase histogram ends up
// bucket for bucket what one EmitBatch per event produces, for phases whose
// samples share one bucket and for phases whose samples scatter.
func TestEmitBatchMatchesEmit(t *testing.T) {
	one, batched := NewRegistry(), NewRegistry()
	r1, rb := NewSpanRecorder(one, 16), NewSpanRecorder(batched, 16)
	for seed := int64(1); seed <= 20; seed++ {
		evs := pipelinedBurst(seed)
		for _, ev := range evs {
			r1.EmitBatch([]SpanEvent{ev})
		}
		rb.EmitBatch(evs)
	}
	for name := range one.Snapshot().Histograms {
		a, b := one.Histogram(name).Snapshot(), batched.Histogram(name).Snapshot()
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: one batch %+v, one event at a time %+v", name, b, a)
		}
	}
	if rb.total != r1.total {
		t.Errorf("total: one batch %d, one event at a time %d", rb.total, r1.total)
	}
}

func BenchmarkEmitBatch(b *testing.B) {
	r := NewSpanRecorder(NewRegistry(), 4096)
	b.RunParallel(func(pb *testing.PB) {
		evs := pipelinedBurst(1)
		for pb.Next() {
			r.EmitBatch(evs)
		}
	})
}
