package blackbox

import (
	"bytes"
	"encoding/binary"
	"testing"

	"repro/internal/pmem"
)

// FuzzBlackboxDecode feeds the flight recorder's slot decoder arbitrary
// record bytes. It must never panic, and a record it accepts must
// re-encode, as Append writes it, to exactly the bytes it read. With
// fixSum set the harness rewrites the checksum over the input first, so
// the fuzzer reaches the field checks behind it.
func FuzzBlackboxDecode(f *testing.F) {
	dev := pmem.New(1<<12, pmem.ModelDRAM)
	r, _, err := Open(dev, 0, 1<<12)
	if err != nil {
		f.Fatal(err)
	}
	r.Append(Record{Kind: KindBatchStart, BatchSeq: 7, Req: 42, Ops: 3, Conns: 2})
	r.Append(Record{Kind: KindBatchCommit, BatchSeq: 7, Ops: 3})
	for slot := 0; slot < 2; slot++ {
		raw := make([]byte, recordSize)
		dev.LoadBytes(headerSize+slot*recordSize, raw)
		f.Add(raw, uint64(slot), r.cap, false)
	}
	f.Add(make([]byte, recordSize), uint64(0), uint64(4), true)
	f.Fuzz(func(t *testing.T, raw []byte, slot, capacity uint64, fixSum bool) {
		if len(raw) != recordSize || capacity == 0 {
			return
		}
		if fixSum {
			binary.LittleEndian.PutUint64(raw[56:], checksum(raw[:56]))
		}
		rec, ok := decode(raw, slot, capacity)
		if !ok {
			return
		}
		if re := encode(rec); !bytes.Equal(re[:], raw) {
			t.Fatalf("accepted record re-encodes differently:\nread %x\nre   %x", raw, re)
		}
	})
}
