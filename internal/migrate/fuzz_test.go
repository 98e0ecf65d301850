package migrate

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// slotBytes is one record slot as WriteRecord lays it out: header, then
// payload.
func slotBytes(seq uint64, payload []byte) []byte {
	b := binary.LittleEndian.AppendUint64(nil, recMagic)
	b = binary.LittleEndian.AppendUint64(b, seq)
	b = binary.LittleEndian.AppendUint64(b, uint64(len(payload)))
	b = binary.LittleEndian.AppendUint64(b, recordSum(seq, payload))
	return append(b, payload...)
}

// FuzzPlacementSlot feeds decodeSlot arbitrary slot bytes. It must never
// panic, and a slot it accepts must re-encode to exactly the bytes it read.
// With fixSum set the harness rewrites the checksum over whatever seq and
// payload the input holds, so the fuzzer reaches the payload decoder
// instead of stopping at the checksum.
func FuzzPlacementSlot(f *testing.F) {
	p := Identity(2, DefaultSlotsPerShard)
	f.Add(slotBytes(1, p.encode()), false)
	p.Journal = Journal{Phase: PhaseCopy, ID: 7, Src: 0, Dst: 1, Slots: []int{3, 5}}
	f.Add(slotBytes(2, p.encode()), false)
	// A torn publish into the older slot: only the new sequence word landed.
	torn := slotBytes(2, p.encode())
	binary.LittleEndian.PutUint64(torn[8:], 3)
	f.Add(torn, false)
	f.Add(torn, true)
	f.Fuzz(func(t *testing.T, area []byte, fixSum bool) {
		if fixSum && len(area) >= recHdrSize {
			if n := binary.LittleEndian.Uint64(area[16:]); n <= uint64(len(area)-recHdrSize) {
				seq := binary.LittleEndian.Uint64(area[8:])
				binary.LittleEndian.PutUint64(area[24:], recordSum(seq, area[recHdrSize:recHdrSize+int(n)]))
			}
		}
		got, seq := decodeSlot(area)
		if got == nil {
			return
		}
		if seq != got.Version {
			t.Fatalf("decodeSlot returned seq %d for a version-%d placement", seq, got.Version)
		}
		re := slotBytes(seq, got.encode())
		if !bytes.Equal(re, area[:len(re)]) {
			t.Fatalf("accepted slot re-encodes differently:\nread %x\nre   %x", area[:len(re)], re)
		}
	})
}
