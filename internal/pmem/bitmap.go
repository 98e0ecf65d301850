package pmem

import "math/bits"

// bitmap is a fixed-size bit set used to track cache-line state. It is only
// touched by the single mutator, so no synchronization is needed.
type bitmap struct {
	words []uint64
}

func newBitmap(n int) bitmap {
	return bitmap{words: make([]uint64, (n+63)/64)}
}

func (b bitmap) clear(i int)     { b.words[i>>6] &^= 1 << uint(i&63) }
func (b bitmap) test(i int) bool { return b.words[i>>6]&(1<<uint(i&63)) != 0 }

func (b bitmap) reset() {
	for i := range b.words {
		b.words[i] = 0
	}
}

// forEach calls fn for every set bit, in ascending order.
func (b bitmap) forEach(fn func(i int)) {
	for wi, w := range b.words {
		for w != 0 {
			fn(wi<<6 + bits.TrailingZeros64(w))
			w &= w - 1
		}
	}
}
