package obs

import (
	"encoding/json"
	"io"
	"sync"
)

// Kind classifies a traced transaction.
type Kind string

// Outcome records how a traced transaction ended.
type Outcome string

// Transaction kinds and outcomes. Every engine uses this vocabulary, so a
// trace consumer never needs engine-specific decoding.
const (
	KindUpdate Kind = "update"
	KindRead   Kind = "read"

	// OutcomeCommit: the update committed durably.
	OutcomeCommit Outcome = "commit"
	// OutcomeRollback: user code returned an error (or panicked) and the
	// engine rolled every persistent effect back.
	OutcomeRollback Outcome = "rollback"
	// OutcomeOK: a read-only transaction completed.
	OutcomeOK Outcome = "ok"
	// OutcomeError: a read-only transaction returned an error.
	OutcomeError Outcome = "error"
)

// TxEvent is one per-transaction trace record. Every engine emits the same
// schema (see docs/OBSERVABILITY.md for field-by-field units and the §6
// paper counterparts); fields an engine cannot measure are zero.
//
// Events are passed by value and contain no pointers, so emitting one
// allocates nothing on the caller's side.
type TxEvent struct {
	// Seq is the sink-assigned sequence number (RingSink numbers events in
	// emission order, starting at 0).
	Seq uint64 `json:"seq"`
	// Engine is the emitting engine's name ("rom", "romlog", "romlr",
	// "pmdk", "mne").
	Engine string `json:"engine"`
	Kind   Kind   `json:"kind"`
	// Outcome is how the transaction ended; for flat-combined engines an
	// update event covers one combined batch.
	Outcome Outcome `json:"outcome"`
	// Reads counts transactional load operations (the read set).
	Reads uint64 `json:"reads"`
	// Writes counts transactional store operations (the write set).
	Writes uint64 `json:"writes"`
	// WriteBytes is the user payload stored by the transaction.
	WriteBytes uint64 `json:"write_bytes"`
	// CopiedBytes is the engine's replication or logging volume: twin-copy
	// bytes for Romulus variants, undo-log snapshot bytes for the undo-log
	// engine, redo-log entry bytes for the STM.
	CopiedBytes uint64 `json:"copied_bytes"`
	// Pwbs and Fences are the persistence events (write-backs;
	// pfence+psync) the device executed on behalf of this transaction,
	// including logging and replication work.
	Pwbs   uint64 `json:"pwbs"`
	Fences uint64 `json:"fences"`
	// Retries counts conflict aborts before this transaction committed
	// (redo-log STM only; 0 elsewhere).
	Retries uint64 `json:"retries,omitempty"`
	// BatchOps is the number of announced operations this durability round
	// carried (flat-combined engines only; 0 elsewhere). An update event with
	// BatchOps > 1 is one crash-atomic super-transaction whose Pwbs and
	// Fences are shared by that many logical operations.
	BatchOps uint64 `json:"batch_ops,omitempty"`
}

// Sink receives per-transaction trace events. Implementations must be safe
// for concurrent Emit: engines with concurrent readers emit from multiple
// goroutines.
type Sink interface {
	Emit(ev TxEvent)
}

// RingSink retains the most recent events in a fixed-capacity ring buffer.
// It assigns Seq in emission order and never allocates after creation.
type RingSink struct {
	mu    sync.Mutex
	buf   []TxEvent
	total uint64
}

// NewRingSink creates a ring sink retaining the last capacity events
// (minimum 1).
func NewRingSink(capacity int) *RingSink {
	if capacity < 1 {
		capacity = 1
	}
	return &RingSink{buf: make([]TxEvent, capacity)}
}

// Emit implements Sink.
func (s *RingSink) Emit(ev TxEvent) {
	s.mu.Lock()
	ev.Seq = s.total
	s.buf[s.total%uint64(len(s.buf))] = ev
	s.total++
	s.mu.Unlock()
}

// Total returns the number of events emitted since creation (including
// those already overwritten).
func (s *RingSink) Total() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.total
}

// Events returns the retained events in emission order (oldest first).
func (s *RingSink) Events() []TxEvent {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := s.total
	cap64 := uint64(len(s.buf))
	start := uint64(0)
	count := n
	if n > cap64 {
		start = n - cap64
		count = cap64
	}
	out := make([]TxEvent, 0, count)
	for i := start; i < n; i++ {
		out = append(out, s.buf[i%cap64])
	}
	return out
}

// WriteJSON writes the retained events as JSON lines (one event object per
// line, oldest first) — the golden-file trace format.
func (s *RingSink) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	for _, ev := range s.Events() {
		if err := enc.Encode(ev); err != nil {
			return err
		}
	}
	return nil
}
