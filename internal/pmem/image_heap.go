//go:build !linux || race || !go1.24

package pmem

// OffHeap reports whether device images live outside the Go heap. Here they
// do not: under the race detector an image is a Go slice, because the
// detector checks accesses to Go-allocated memory only, and an image in a
// mapping would take every load and store out of `go test -race` and the
// crash campaigns run with it. Other platforms lack the mapping calls, and
// toolchains before Go 1.24 lack package weak, which recycling needs.
const OffHeap = false

// newImage returns a zeroed size-byte image on the Go heap.
func newImage(size int, _ bool) []byte { return make([]byte, size) }

// track has nothing to record: the collector frees a heap image.
func track(*Device) {}
