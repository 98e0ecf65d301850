//go:build linux && !race && go1.24

package pmem

import (
	"fmt"
	"os"
	"sync"
	"syscall"
	"unsafe"
	"weak"
)

// OffHeap reports whether device images live outside the Go heap, in
// anonymous private mappings. They do on Linux with Go 1.24 or later (for
// package weak), except under the race detector (see image_heap.go).
//
// Outside the heap an image is sparse: the kernel backs a page nobody has
// stored to with its shared zero page, so a device costs resident memory for
// the prefix its engine has touched, not for its size. And the image no
// longer paces the collector: the Go heap keeps only the per-line state.
const OffHeap = true

// images is every mapping the process holds, each the image of a device
// that is live or has been collected. A fresh page costs microseconds to
// fault in, so a new device takes over a collected device's mapping of its
// size rather than mapping anew, as the Go heap reuses freed spans.
//
// A weak pointer, unlike a cleanup, is nil as soon as a collection has found
// the device unreachable, so which mappings are free is known the moment a
// new device asks.
var images struct {
	sync.Mutex
	all []image
}

type image struct {
	mem []byte
	dev weak.Pointer[Device] // nil once the device is collected
}

// newImage returns a size-byte image for a new device, which adopts it with
// track. It is a collected device's mapping when one of that size is free —
// all zeros if zeroed is set, stale bytes the caller overwrites otherwise —
// or else a fresh mapping, all zeros.
func newImage(size int, zeroed bool) []byte {
	if mem := reclaim(size); mem != nil {
		if zeroed {
			zeroResident(mem)
		}
		return mem
	}
	mem, err := syscall.Mmap(-1, 0, size, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		panic(fmt.Sprintf("pmem: map a %d-byte image: %v", size, err))
	}
	return mem
}

// track records d as the owner of its image.
func track(d *Device) {
	images.Lock()
	images.all = append(images.all, image{mem: d.mem, dev: weak.Make(d)})
	images.Unlock()
}

// reclaim takes the first collected device's mapping of size bytes out of
// the registry, or returns nil. The same scan bounds what collected devices
// keep mapped: no more than the live devices' mappings, the one about to be
// adopted included. The rest is unmapped.
func reclaim(size int) []byte {
	images.Lock()
	defer images.Unlock()
	live := size
	for _, im := range images.all {
		if im.dev.Value() != nil {
			live += len(im.mem)
		}
	}
	var taken []byte
	kept, dead := images.all[:0], 0
	for _, im := range images.all {
		switch {
		case im.dev.Value() != nil:
			kept = append(kept, im)
		case taken == nil && len(im.mem) == size:
			taken = im.mem
		case dead+len(im.mem) <= live:
			dead += len(im.mem)
			kept = append(kept, im)
		default:
			_ = syscall.Munmap(im.mem) // a mapping of ours, whole: cannot fail
		}
	}
	clear(images.all[len(kept):])
	images.all = kept
	return taken
}

// zeroResident zeroes a reused image. Pages the mapping holds in memory are
// cleared, which keeps them mapped for the next device's stores; the rest
// were never stored to or have been swapped out, which mincore does not tell
// apart, so they are dropped back to the zero page.
func zeroResident(mem []byte) {
	vec, err := residency(mem)
	if err != nil {
		clear(mem)
		return
	}
	page := os.Getpagesize()
	for lo := 0; lo < len(vec); {
		hi := lo + 1
		for hi < len(vec) && vec[hi]&1 == vec[lo]&1 {
			hi++
		}
		run := mem[lo*page : min(hi*page, len(mem))]
		if vec[lo]&1 != 0 || syscall.Madvise(run, syscall.MADV_DONTNEED) != nil {
			clear(run)
		}
		lo = hi
	}
}

// residency reports for each page of mem, a mapping of ours, whether it is
// in memory: bit 0 of its byte, as mincore(2) sets it.
func residency(mem []byte) ([]byte, error) {
	page := os.Getpagesize()
	vec := make([]byte, (len(mem)+page-1)/page)
	_, _, errno := syscall.Syscall(syscall.SYS_MINCORE, uintptr(unsafe.Pointer(&mem[0])),
		uintptr(len(mem)), uintptr(unsafe.Pointer(&vec[0])))
	if errno != 0 {
		return nil, errno
	}
	return vec, nil
}
