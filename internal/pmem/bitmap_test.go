package pmem

import (
	"sort"
	"testing"
	"testing/quick"
)

func TestBitmapBasics(t *testing.T) {
	b := newBitmap(200)
	for _, i := range []int{0, 63, 64, 127, 199} {
		if b.test(i) {
			t.Errorf("fresh bitmap has bit %d set", i)
		}
		b.words[i>>6] |= 1 << (i & 63)
		if !b.test(i) {
			t.Errorf("bit %d not set", i)
		}
	}
	b.clear(64)
	if b.test(64) {
		t.Error("bit 64 still set after clear")
	}
	var got []int
	b.forEach(func(i int) { got = append(got, i) })
	want := []int{0, 63, 127, 199}
	if len(got) != len(want) {
		t.Fatalf("forEach visited %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("forEach visited %v, want %v", got, want)
		}
	}
	b.reset()
	n := 0
	b.forEach(func(int) { n++ })
	if n != 0 {
		t.Errorf("reset left %d bits", n)
	}
}

// Property: forEach reports exactly the distinct set bits, ascending.
func TestQuickBitmapForEach(t *testing.T) {
	f := func(idxs []uint8) bool {
		b := newBitmap(256)
		uniq := map[int]bool{}
		for _, i := range idxs {
			b.words[i>>6] |= 1 << (i & 63)
			uniq[int(i)] = true
		}
		var got []int
		b.forEach(func(i int) { got = append(got, i) })
		if len(got) != len(uniq) {
			return false
		}
		if !sort.IntsAreSorted(got) {
			return false
		}
		for _, i := range got {
			if !uniq[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
