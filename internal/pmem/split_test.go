package pmem

import (
	"bytes"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"testing"
)

// splitSizes are the job sizes the split is checked at: one line, either side
// of the size below which it runs inline, and sizes no worker count divides,
// the last with a partial chunk.
var splitSizes = []int{
	LineSize,
	2*splitMin - LineSize,
	2*splitMin + LineSize,
	3*splitMin + 5*LineSize,
	5*splitMin + 3*DiffChunk + 7*LineSize,
}

// splitPieces returns the ranges split hands out for an n-byte job, sorted.
func splitPieces(n int) [][2]int {
	var mu sync.Mutex
	var got [][2]int
	split(n, func(lo, hi int) {
		mu.Lock()
		got = append(got, [2]int{lo, hi})
		mu.Unlock()
	})
	sort.Slice(got, func(i, j int) bool { return got[i][0] < got[j][0] })
	return got
}

// TestSplitCoversOnce pins the helper's contract: the pieces tile [0, n)
// exactly, each but the last starts and ends on a DiffChunk boundary, none
// is below splitMin, and a job below twice splitMin — or on one processor —
// is one piece.
func TestSplitCoversOnce(t *testing.T) {
	for _, n := range splitSizes {
		got := splitPieces(n)
		want := min(runtime.GOMAXPROCS(0), n/splitMin)
		if want <= 1 && len(got) != 1 || len(got) > max(want, 1) {
			t.Errorf("n=%d: %d pieces at GOMAXPROCS %d, want %d", n, len(got), runtime.GOMAXPROCS(0), max(want, 1))
		}
		next := 0
		for i, p := range got {
			if p[0] != next || p[1] <= p[0] || p[0]%DiffChunk != 0 {
				t.Fatalf("n=%d: piece %d is [%d,%d) after %d", n, i, p[0], p[1], next)
			}
			if len(got) > 1 && i < len(got)-1 && p[1]-p[0] < splitMin {
				t.Errorf("n=%d: piece %d is %d bytes, below %d", n, i, p[1]-p[0], splitMin)
			}
			next = p[1]
		}
		if next != n {
			t.Errorf("n=%d: pieces end at %d", n, next)
		}
	}
}

// TestSplitCopiesExact: FromImage and Persisted reproduce their source byte
// for byte at every split size, Persisted with lines in flight laid over.
func TestSplitCopiesExact(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range splitSizes {
		want := make([]byte, n)
		rng.Read(want)
		if got := FromImage(want, ModelDRAM).Bytes(0, n); !bytes.Equal(got, want) {
			t.Errorf("n=%d: FromImage differs from its image", n)
		}
		d := New(n, ModelDRAM)
		d.StoreBytes(0, want)
		d.PersistAll()
		for i := 0; i < 16; i++ { // stores the media lacks, dirty and queued
			off := rng.Intn(n/LineSize) * LineSize
			d.Store64(off, rng.Uint64())
			if i%2 == 0 {
				d.Pwb(off)
			}
		}
		if got := d.Persisted(); !bytes.Equal(got, want) {
			t.Errorf("n=%d: Persisted differs from the media", n)
		}
	}
}

// TestDiffersFindsEveryChunk plants differing lines where a split comparison
// could miss them — the first and last line of a chunk, either side of the
// edge between two processors' pieces, the partial last chunk — and an equal
// line that is still pending, and checks Differs reports exactly the chunks
// they fall in.
func TestDiffersFindsEveryChunk(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, n := range splitSizes {
		const src = 3 * LineSize // neither twin starts on a chunk boundary
		dst := src + n + 5*LineSize
		d := New(dst+n, ModelDRAM)
		twin := make([]byte, n)
		rng.Read(twin)
		d.StoreBytes(src, twin)
		d.StoreBytes(dst, twin)
		d.PersistAll()

		plant := []int{0, DiffChunk - LineSize, n - LineSize}
		for _, p := range splitPieces(n)[1:] {
			plant = append(plant, p[0]-LineSize, p[0])
		}
		want := make([]bool, (n+DiffChunk-1)/DiffChunk)
		for _, off := range plant {
			if off < 0 || off >= n {
				continue
			}
			d.StoreBytes(dst+off, []byte{^twin[off]})
			want[off/DiffChunk] = true
		}
		d.PersistAll()
		if n > DiffChunk { // equal bytes, stored again: pending, so it differs
			off := n / 2 &^ (LineSize - 1)
			d.StoreBytes(dst+off, twin[off:off+LineSize])
			want[off/DiffChunk] = true
		}

		got := d.Differs(dst, src, n)
		if len(got) != len(want) {
			t.Fatalf("n=%d: %d chunks, want %d", n, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("n=%d: chunk %d (bytes %d..) differs=%v, want %v", n, i, i*DiffChunk, got[i], want[i])
			}
		}
	}
}
