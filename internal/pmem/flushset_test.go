package pmem

import "testing"

func TestFlushSetDedupsLines(t *testing.T) {
	d := New(1024, ModelCLWB)
	fs := NewFlushSet(d.Size())
	// Three stores on line 0, one spanning lines 1-2, one more on line 1.
	d.Store64(0, 1)
	fs.Add(0, 8)
	d.Store64(8, 2)
	fs.Add(8, 8)
	d.Store8(16, 3)
	fs.Add(16, 1)
	d.StoreBytes(LineSize+60, make([]byte, 8)) // spans lines 1 and 2
	fs.Add(LineSize+60, 8)
	d.Store64(LineSize, 4)
	fs.Add(LineSize, 8)
	if fs.Len() != 3 {
		t.Fatalf("Len = %d, want 3 distinct lines", fs.Len())
	}
	before := d.Stats().Pwbs
	fs.Flush(d)
	if got := d.Stats().Pwbs - before; got != 3 {
		t.Fatalf("Flush issued %d pwbs, want 3", got)
	}
	if fs.Len() != 0 {
		t.Fatalf("Len after Flush = %d, want 0", fs.Len())
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
			t.Errorf("offset %d not persisted after Flush+Pfence", off)
		}
	}
}

func TestFlushSetResetAndEpochReuse(t *testing.T) {
	d := New(LineSize*4, ModelCLWB)
	fs := NewFlushSet(d.Size())
	for round := 0; round < 10; round++ {
		fs.Add(0, 8)
		fs.Add(LineSize*2, 8)
		if fs.Len() != 2 {
			t.Fatalf("round %d: Len = %d, want 2", round, fs.Len())
		}
		if round%2 == 0 {
			fs.Flush(d)
		} else {
			fs.Reset()
		}
		if fs.Len() != 0 {
			t.Fatalf("round %d: Len after reset = %d", round, fs.Len())
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
		if s.Len() != 0 {
			t.Fatalf("round %d: Len after Reset = %d", round, s.Len())
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
