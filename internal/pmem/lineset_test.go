package pmem

import "testing"

// TestLineSetDedupsLines pins what a write-back burst over the set costs:
// one pwb per distinct stored line, in first-store order, however many stores
// hit each line.
func TestLineSetDedupsLines(t *testing.T) {
	d := New(1024, ModelCLWB)
	s := NewLineSet(d.Size())
	// Three stores on line 0, one spanning lines 1-2, one more on line 1.
	d.Store64(0, 1)
	s.Add(0, 8)
	d.Store64(8, 2)
	s.Add(8, 8)
	d.Store8(16, 3)
	s.Add(16, 1)
	d.StoreBytes(LineSize+60, make([]byte, 8)) // spans lines 1 and 2
	s.Add(LineSize+60, 8)
	d.Store64(LineSize, 4)
	s.Add(LineSize, 8)
	if len(s.Lines()) != 3 {
		t.Fatalf("len = %d, want 3 distinct lines", len(s.Lines()))
	}
	before := d.Stats().Pwbs
	for i, line := range s.Lines() {
		if int(line) != i {
			t.Fatalf("Lines = %v, want [0 1 2]", s.Lines())
		}
		d.Pwb(int(line) * LineSize)
	}
	s.Reset()
	if got := d.Stats().Pwbs - before; got != 3 {
		t.Fatalf("burst issued %d pwbs, want 3", got)
	}
	if len(s.Lines()) != 0 {
		t.Fatalf("len after Reset = %d, want 0", len(s.Lines()))
	}
	if !d.NeedsFence() {
		t.Fatal("queued write-backs should report NeedsFence")
	}
	d.Pfence()
	if d.NeedsFence() {
		t.Fatal("drained device should not need a fence")
	}
	for _, off := range []int{0, 8, 16, LineSize, LineSize + 60} {
		if d.Persisted()[off] != d.Bytes(off, 1)[0] {
			t.Errorf("offset %d not persisted after the burst and Pfence", off)
		}
	}
}

func TestLineSetResetAndReuse(t *testing.T) {
	s := NewLineSet(LineSize * 4)
	for round := 0; round < 10; round++ {
		s.Add(0, 8)
		s.Add(LineSize*2, 8)
		if len(s.Lines()) != 2 || !s.Has(LineSize*2+63) || s.Has(LineSize) {
			t.Fatalf("round %d: Len = %d, Has(line 2) = %v, Has(line 1) = %v; want 2, true, false",
				round, len(s.Lines()), s.Has(LineSize*2+63), s.Has(LineSize))
		}
		s.Reset()
		if len(s.Lines()) != 0 || s.Has(0) {
			t.Fatalf("round %d: len after Reset = %d, Has(line 0) = %v", round, len(s.Lines()), s.Has(0))
		}
	}
}

// TestLineSetResetForgetsEveryMember pins the set's one subtlety: Reset
// clears exactly the listed bits, so a reused set neither leaks a member into
// the next round nor loses insertion order.
func TestLineSetResetForgetsEveryMember(t *testing.T) {
	s := NewLineSet(LineSize * 130) // three bitmap words
	for round := 0; round < 3; round++ {
		s.Add(LineSize*129, 1)
		s.Add(0, 8)
		s.Add(LineSize*64-1, 2+LineSize) // lines 63, 64, 65
		s.Add(4, 8)                      // line 0 again
		want := []int32{129, 0, 63, 64, 65}
		if got := s.Lines(); len(got) != len(want) {
			t.Fatalf("round %d: lines = %v, want %v", round, got, want)
		}
		for i, l := range s.Lines() {
			if l != want[i] {
				t.Fatalf("round %d: lines = %v, want %v", round, s.Lines(), want)
			}
		}
		s.Reset()
		if len(s.Lines()) != 0 {
			t.Fatalf("round %d: len after Reset = %d", round, len(s.Lines()))
		}
		for w, bits := range s.bits.words {
			if bits != 0 {
				t.Fatalf("round %d: word %d = %#x after Reset", round, w, bits)
			}
		}
	}
}

func TestNeedsFenceOrderedModel(t *testing.T) {
	d := New(LineSize, ModelCLFLUSH)
	d.Store64(0, 7)
	d.Pwb(0)
	if d.NeedsFence() {
		t.Fatal("ordered pwb persists immediately; no fence should be needed")
	}
	if d.Persisted()[0] != 7 {
		t.Fatal("ordered pwb did not persist the line")
	}
}
