package hsync

import (
	"runtime"
	"testing"
)

func TestReadIndicatorArriveDepart(t *testing.T) {
	var r ReadIndicator
	if !r.isEmpty() {
		t.Fatal("fresh indicator not empty")
	}
	a := r.Arrive()
	if r.isEmpty() {
		t.Fatal("indicator empty with one reader")
	}
	b := r.Arrive()
	r.Depart(a)
	if r.isEmpty() {
		t.Fatal("indicator empty with the second reader present")
	}
	r.Depart(b)
	if !r.isEmpty() {
		t.Fatal("indicator not empty after all depart")
	}
}

func TestReadIndicatorReentrant(t *testing.T) {
	var r ReadIndicator
	outer := r.Arrive()
	inner := r.Arrive()
	r.Depart(inner)
	if r.isEmpty() {
		t.Fatal("nested arrival lost")
	}
	r.Depart(outer)
	if !r.isEmpty() {
		t.Fatal("indicator stuck after nested departs")
	}
}

// TestReadIndicatorSharedStripes holds far more readers than the indicator
// has stripes, so many share one: each shared stripe must still count every
// reader on it, and the indicator must read empty only after the last one
// departs.
func TestReadIndicatorSharedStripes(t *testing.T) {
	var r ReadIndicator
	const readers = 1000
	held := make([]*Stripe, readers)
	for i := range held {
		held[i] = r.Arrive()
	}
	if n := len(r.t.Load().s); n >= readers || n&(n-1) != 0 || n < 2*runtime.GOMAXPROCS(0) {
		t.Fatalf("%d stripes: want a power of two >= 2*GOMAXPROCS, below %d", n, readers)
	}
	for i, s := range held {
		if r.isEmpty() {
			t.Fatalf("indicator empty with %d readers present", readers-i)
		}
		r.Depart(s)
	}
	if !r.isEmpty() {
		t.Fatal("indicator not empty after all depart")
	}
}

func TestWaitEmpty(t *testing.T) {
	var r ReadIndicator
	s := r.Arrive()
	done := make(chan struct{})
	go func() {
		r.WaitEmpty()
		close(done)
	}()
	select {
	case <-done:
		t.Fatal("WaitEmpty returned with a reader present")
	default:
	}
	r.Depart(s)
	<-done // must terminate
}

// BenchmarkReadIndicator times a reader's Arrive/Depart pair from every
// processor at once, and the writer-side isEmpty scan of an indicator that
// readers have used.
func BenchmarkReadIndicator(b *testing.B) {
	b.Run("ArriveDepart", func(b *testing.B) {
		var r ReadIndicator
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				r.Depart(r.Arrive())
			}
		})
	})
	b.Run("IsEmpty", func(b *testing.B) {
		var r ReadIndicator
		r.Depart(r.Arrive())
		for i := 0; i < b.N; i++ {
			if !r.isEmpty() {
				b.Fatal("indicator not empty")
			}
		}
	})
}
