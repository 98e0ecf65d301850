package main

import (
	"fmt"
	"math/rand"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/pmem"
)

// workload is one row of the benchmark: a traffic mix plus the store it runs
// on. The reasons the four exist are in BENCHMARK.json and README.md.
type workload struct {
	name      string
	wire      bool // true: romulusd protocol over loopback; false: shard.Store API
	depth     int  // requests outstanding per connection (wire only)
	getPct    int  // share of GETs
	xwritePct int  // share of two-key cross-shard Writes (embedded only)
	zipf      bool // Zipf(s=1.1) instead of uniform
	keys      int  // power of two
	valSize   int
	shards    int
	variant   core.Variant
	model     pmem.Model
	region    int // persistent heap per twin copy per shard
}

// clients is fixed at two: this box has two cores, and a load generator with
// more goroutines than cores measures the scheduler.
const clients = 2

var workloads = []*workload{
	{name: "sync_write", wire: true, depth: 1, getPct: 10, keys: 16384, valSize: 64,
		shards: 1, variant: core.RomLog, model: pmem.ModelPCM, region: 4 << 20},
	// Bursts of 16, not 32: on two cores about 1% of requests wait for a 4 ms
	// scheduler tick, and at 32 that share straddles the 99th percentile, so
	// p99 read anywhere from 0.5 to 3 ms run to run (README, "Noise").
	{name: "pipelined_write", wire: true, depth: 16, getPct: 10, keys: 16384, valSize: 64,
		shards: 1, variant: core.RomLog, model: pmem.ModelDRAM, region: 4 << 20},
	{name: "read_mostly", wire: true, depth: 1, getPct: 95, zipf: true, keys: 131072, valSize: 128,
		shards: 2, variant: core.RomLog, model: pmem.ModelDRAM, region: 24 << 20},
	{name: "embedded_mixed", getPct: 50, xwritePct: 10, keys: 32768, valSize: 1024,
		shards: 2, variant: core.Rom, model: pmem.ModelPCM, region: 24 << 20},
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			c := *w
			return &c, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q (see -list)", name)
}

const (
	keyLen    = 8  // "k" + 7 digits
	valHeader = 16 // 8 hex digits of key id, 8 of version
)

func appendKey(dst []byte, id uint32) []byte {
	var d [keyLen]byte
	d[0] = 'k'
	for i := keyLen - 1; i > 0; i-- {
		d[i] = byte('0' + id%10)
		id /= 10
	}
	return append(dst, d[:]...)
}

const hexDigits = "0123456789abcdef"

func appendHex8(dst []byte, v uint32) []byte {
	for s := 28; s >= 0; s -= 4 {
		dst = append(dst, hexDigits[(v>>uint(s))&15])
	}
	return dst
}

// appendValue writes the value of key id at version ver: the id and version
// in hex, then a filler letter that depends on both, so a value that belongs
// to another key, another version, or is torn never decodes.
func appendValue(dst []byte, id, ver uint32, size int) []byte {
	dst = appendHex8(dst, id)
	dst = appendHex8(dst, ver)
	fill := filler(id, ver)
	for i := valHeader; i < size; i++ {
		dst = append(dst, fill)
	}
	return dst
}

func filler(id, ver uint32) byte { return byte('a' + (id+ver)%26) }

func parseHex8(b []byte) (uint32, bool) {
	var v uint32
	for _, c := range b {
		switch {
		case c >= '0' && c <= '9':
			v = v<<4 | uint32(c-'0')
		case c >= 'a' && c <= 'f':
			v = v<<4 | uint32(c-'a'+10)
		default:
			return 0, false
		}
	}
	return v, true
}

// decodeValue returns the version a value carries, or ok=false when it is
// not a well-formed value of key id.
func decodeValue(val []byte, id uint32, size int) (ver uint32, ok bool) {
	if len(val) != size {
		return 0, false
	}
	got, ok1 := parseHex8(val[:8])
	ver, ok2 := parseHex8(val[8:valHeader])
	if !ok1 || !ok2 || got != id {
		return 0, false
	}
	fill := filler(id, ver)
	for _, c := range val[valHeader:] {
		if c != fill {
			return 0, false
		}
	}
	return ver, true
}

// versions is the benchmark's record of what the store must hold. Writes are
// partitioned by key id (id % clients owns the key), so issued needs no
// synchronisation; acked is what other clients' reads and the post-crash
// check compare against.
type versions struct {
	issued []uint32
	acked  []atomic.Uint32
}

func newVersions(keys int) *versions {
	return &versions{issued: make([]uint32, keys), acked: make([]atomic.Uint32, keys)}
}

const (
	opGet = iota
	opPut
	opXWrite
)

type op struct {
	kind    uint8
	id, id2 uint32
}

// opStream generates one client's operations from the seed alone.
type opStream struct {
	w       *workload
	rng     *rand.Rand
	zipf    *rand.Zipf
	client  uint32
	shardOf []uint8 // for picking the second key of a cross-shard Write
}

func newOpStream(w *workload, seed int64, client int, shardOf []uint8) *opStream {
	rng := rand.New(rand.NewSource(seed*1_000_003 + int64(client)))
	s := &opStream{w: w, rng: rng, client: uint32(client), shardOf: shardOf}
	if w.zipf {
		s.zipf = rand.NewZipf(rng, 1.1, 1, uint64(w.keys-1))
	}
	return s
}

// keyID draws a key. Zipf ranks are scattered by an odd multiplier so hot
// keys spread over both clients' partitions and all shards.
func (s *opStream) keyID() uint32 {
	if s.zipf != nil {
		return uint32(s.zipf.Uint64()*2654435761) & uint32(s.w.keys-1)
	}
	return uint32(s.rng.Intn(s.w.keys))
}

// ownKeyID draws a key of this client's write partition.
func (s *opStream) ownKeyID() uint32 {
	return s.keyID()&^(clients-1) | s.client
}

func (s *opStream) next() op {
	r := s.rng.Intn(100)
	switch {
	case r < s.w.getPct:
		return op{kind: opGet, id: s.keyID()}
	case r < s.w.getPct+s.w.xwritePct:
		id := s.ownKeyID()
		id2 := id
		for {
			id2 = (id2 + clients) & uint32(s.w.keys-1)
			if s.shardOf[id2] != s.shardOf[id] || id2 == id {
				return op{kind: opXWrite, id: id, id2: id2}
			}
		}
	default:
		return op{kind: opPut, id: s.ownKeyID()}
	}
}
