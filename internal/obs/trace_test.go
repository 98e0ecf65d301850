package obs

import (
	"strings"
	"testing"
)

func TestRingSinkWraps(t *testing.T) {
	s := NewRingSink(3)
	for i := 0; i < 5; i++ {
		s.Emit(TxEvent{Engine: "rom", Kind: KindUpdate, Writes: uint64(i)})
	}
	if got := s.Total(); got != 5 {
		t.Fatalf("Total = %d, want 5", got)
	}
	evs := s.Events()
	if len(evs) != 3 {
		t.Fatalf("retained %d events, want 3", len(evs))
	}
	for i, ev := range evs {
		if want := uint64(i + 2); ev.Seq != want || ev.Writes != want {
			t.Fatalf("event %d = seq %d writes %d, want %d", i, ev.Seq, ev.Writes, want)
		}
	}
}

func TestRingSinkWriteJSON(t *testing.T) {
	s := NewRingSink(8)
	s.Emit(TxEvent{Engine: "romlog", Kind: KindUpdate, Outcome: OutcomeCommit, Pwbs: 3, Fences: 4})
	s.Emit(TxEvent{Engine: "romlog", Kind: KindRead, Outcome: OutcomeOK, Reads: 2})
	var b strings.Builder
	if err := s.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want 2:\n%s", len(lines), b.String())
	}
	if want := `{"seq":0,"engine":"romlog","kind":"update","outcome":"commit","reads":0,"writes":0,"write_bytes":0,"copied_bytes":0,"pwbs":3,"fences":4}`; lines[0] != want {
		t.Fatalf("line 0 = %s\nwant     %s", lines[0], want)
	}
}
