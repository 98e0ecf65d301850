package obs

import (
	"encoding/json"
	"io"
	"sync"
)

// Span phases. A request's lifetime through the pipelined server decomposes
// into consecutive child phases under one parent "request" span:
//
//	parse       — request line read off the socket to dispatch complete
//	              (for writes: enqueued to the shard's group committer)
//	queue_wait  — enqueue to a batch leader taking the op off the queue
//	batch_form  — taken to the batch's shard transaction beginning
//	psync_wait  — transaction begin to the batch's durable point (psync)
//	reply_flush — durable (or, for reads, dispatched) to the reply's flush
//	request     — the parent: line read to reply flushed
//
// Read-only requests have no committer phases: they emit parse,
// reply_flush and request only.
const (
	PhaseParse      = "parse"
	PhaseQueueWait  = "queue_wait"
	PhaseBatchForm  = "batch_form"
	PhasePsyncWait  = "psync_wait"
	PhaseReplyFlush = "reply_flush"
	PhaseRequest    = "request"
)

// SpanEvent is one phase of one request's timeline. It is emitted by value
// and holds no pointers.
type SpanEvent struct {
	// Seq is the recorder-assigned emission sequence (0-based).
	Seq uint64 `json:"seq"`
	// Req is the request's server-assigned ReqID: all phases of one request
	// share it, which is what /trace?req=<id> joins on.
	Req uint64 `json:"req"`
	// Conn is the serving connection's id.
	Conn uint64 `json:"conn"`
	// Op is the request verb ("SET", "GET", "EXEC", ...).
	Op string `json:"op"`
	// Phase is one of the Phase* constants.
	Phase string `json:"phase"`
	// StartNs is the phase's absolute start (UnixNano), DurNs its length.
	StartNs int64  `json:"start_ns"`
	DurNs   uint64 `json:"dur_ns"`
	// Shard and BatchSeq attribute committer phases to the durable batch
	// that carried the write (zero for read-only requests and for phases
	// before batch formation).
	Shard    int    `json:"shard,omitempty"`
	BatchSeq uint64 `json:"batch_seq,omitempty"`
}

// SpanRecorder retains the most recent span events in a ring and folds
// every phase into a per-phase latency histogram (net_span_<phase>_ns).
// Safe for concurrent Emit — each connection emits its own requests' spans.
type SpanRecorder struct {
	mu    sync.Mutex
	buf   []SpanEvent
	total uint64

	parse, queueWait, batchForm, psyncWait, replyFlush, request *Histogram
}

// NewSpanRecorder creates a recorder retaining the last capacity events
// (minimum 1). When reg is non-nil the per-phase histograms are registered
// there; with a nil registry the recorder still rings (tests, ad-hoc use)
// but publishes no metrics.
func NewSpanRecorder(reg *Registry, capacity int) *SpanRecorder {
	if capacity < 1 {
		capacity = 1
	}
	r := &SpanRecorder{buf: make([]SpanEvent, capacity)}
	if reg == nil {
		reg = NewRegistry()
	}
	r.parse = reg.Histogram("net_span_parse_ns")
	r.queueWait = reg.Histogram("net_span_queue_wait_ns")
	r.batchForm = reg.Histogram("net_span_batch_form_ns")
	r.psyncWait = reg.Histogram("net_span_psync_wait_ns")
	r.replyFlush = reg.Histogram("net_span_reply_flush_ns")
	r.request = reg.Histogram("net_span_request_ns")
	return r
}

// Emit records one span event, assigning Seq.
func (r *SpanRecorder) Emit(ev SpanEvent) {
	r.observe(ev.Phase, ev.DurNs)
	r.mu.Lock()
	ev.Seq = r.total
	r.buf[r.total%uint64(len(r.buf))] = ev
	r.total++
	r.mu.Unlock()
}

// EmitBatch records many span events at once: each phase's samples are
// folded locally (histAccum) and merged once per batch, and the ring
// takes one lock acquisition for the whole batch. The server's reply flusher
// collects every flushed request's phases and emits them here, so a
// pipelined burst pays per-flush costs instead of per-phase costs — the
// difference between ~1% and ~10% throughput overhead under load.
func (r *SpanRecorder) EmitBatch(evs []SpanEvent) {
	if len(evs) == 0 {
		return
	}
	acc := [6]histAccum{{h: r.parse}, {h: r.queueWait}, {h: r.batchForm},
		{h: r.psyncWait}, {h: r.replyFlush}, {h: r.request}}
	for i := range evs {
		switch evs[i].Phase {
		case PhaseParse:
			acc[0].add(evs[i].DurNs)
		case PhaseQueueWait:
			acc[1].add(evs[i].DurNs)
		case PhaseBatchForm:
			acc[2].add(evs[i].DurNs)
		case PhasePsyncWait:
			acc[3].add(evs[i].DurNs)
		case PhaseReplyFlush:
			acc[4].add(evs[i].DurNs)
		case PhaseRequest:
			acc[5].add(evs[i].DurNs)
		}
	}
	for i := range acc {
		acc[i].flush()
	}
	r.mu.Lock()
	cap64 := uint64(len(r.buf))
	for i := range evs {
		evs[i].Seq = r.total + uint64(i)
	}
	// Bulk ring insert: at most two copy calls instead of a modulo and
	// bounds check per event. A batch longer than the ring keeps only its
	// tail (the older events would be overwritten anyway).
	src := evs
	if uint64(len(src)) > cap64 {
		drop := uint64(len(src)) - cap64
		src = src[drop:]
		r.total += drop
	}
	pos := r.total % cap64
	n := copy(r.buf[pos:], src)
	copy(r.buf, src[n:])
	r.total += uint64(len(src))
	r.mu.Unlock()
}

// observe folds one phase duration into its histogram.
func (r *SpanRecorder) observe(phase string, durNs uint64) {
	switch phase {
	case PhaseParse:
		r.parse.Observe(durNs)
	case PhaseQueueWait:
		r.queueWait.Observe(durNs)
	case PhaseBatchForm:
		r.batchForm.Observe(durNs)
	case PhasePsyncWait:
		r.psyncWait.Observe(durNs)
	case PhaseReplyFlush:
		r.replyFlush.Observe(durNs)
	case PhaseRequest:
		r.request.Observe(durNs)
	}
}

// Total returns the number of events emitted since creation.
func (r *SpanRecorder) Total() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total
}

// Events returns the retained events in emission order (oldest first).
func (r *SpanRecorder) Events() []SpanEvent {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.eventsLocked()
}

func (r *SpanRecorder) eventsLocked() []SpanEvent {
	n, cap64 := r.total, uint64(len(r.buf))
	start, count := uint64(0), n
	if n > cap64 {
		start, count = n-cap64, cap64
	}
	out := make([]SpanEvent, 0, count)
	for i := start; i < n; i++ {
		out = append(out, r.buf[i%cap64])
	}
	return out
}

// ByReq returns every retained span of one request, in emission order —
// the /trace?req=<id> timeline. Empty when the request's spans have been
// overwritten (or never existed).
func (r *SpanRecorder) ByReq(req uint64) []SpanEvent {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []SpanEvent
	for _, ev := range r.eventsLocked() {
		if ev.Req == req {
			out = append(out, ev)
		}
	}
	return out
}

// WriteJSON writes the retained spans as JSON lines, oldest first.
func (r *SpanRecorder) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	for _, ev := range r.Events() {
		if err := enc.Encode(ev); err != nil {
			return err
		}
	}
	return nil
}
