package shard

import (
	"bytes"
	"testing"

	"repro/internal/kvstore"
)

// FuzzDecodeOps feeds the coordinator's two-phase payload decoder arbitrary
// bytes and shard counts. It must never panic, and a payload it accepts
// must re-encode to exactly the bytes it read.
func FuzzDecodeOps(f *testing.F) {
	a, b := &kvstore.Batch{}, &kvstore.Batch{}
	a.Put([]byte("k1"), []byte("v1"))
	a.Delete([]byte("gone"))
	b.Put([]byte("k2"), nil)
	f.Add(encodeOps([]*kvstore.Batch{a, nil, b}), uint8(3))
	f.Add(encodeOps(nil), uint8(1))
	f.Fuzz(func(t *testing.T, payload []byte, shards uint8) {
		groups, err := decodeOps(payload, int(shards))
		if err != nil {
			return
		}
		if len(groups) != int(shards) {
			t.Fatalf("decoded %d groups for %d shards", len(groups), shards)
		}
		if re := encodeOps(groups); !bytes.Equal(re, payload) {
			t.Fatalf("accepted payload re-encodes differently:\nread %x\nre   %x", payload, re)
		}
	})
}
