package main

import (
	"bytes"
	"fmt"
	"sync"
	"time"

	"repro/internal/kvstore"
)

// epoch is the zero of every span timestamp.
var epoch = time.Now()

// span is one traced interval. Spans of one operation share Op; Parent names
// the span of the layer above.
type span struct {
	Name    string `json:"name"`
	Op      uint64 `json:"op"`
	Parent  string `json:"parent,omitempty"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// window holds what one client saw in one measurement window.
type window struct {
	ops  uint64
	wlat hist
	rlat hist
}

// clientRing bounds the client spans a traced phase keeps (the latest ones).
const clientRing = 4096

const maxDepth = 16

// totals count a phase's operations whether or not they fell in a window.
type totals struct {
	attempted, failed uint64
	acked             uint64 // operations answered correctly
	writes            uint64 // write operations (a two-key Write is one)
	userBytes         uint64 // key+value bytes of acknowledged writes
}

func (t *totals) add(o totals) {
	t.attempted += o.attempted
	t.failed += o.failed
	t.acked += o.acked
	t.writes += o.writes
	t.userBytes += o.userBytes
}

type pending struct {
	op    op
	want  uint32
	exact bool // own key: the version must be want; else at least want
}

// client is one closed-loop load generator: a connection for wire workloads,
// a goroutine calling the store for the embedded one. It lives across
// phases, so its operation stream and the versions it wrote carry on.
type client struct {
	id   int
	sys  *system
	ops  *opStream
	ver  *versions
	wins []window

	totals // of the current phase

	ring  []span // nil unless the phase is traced
	ringN uint64

	buf, key, key2, val, val2 []byte
	pend                      [maxDepth]pending
	batch                     kvstore.Batch
}

func newClients(s *system, seed int64, ver *versions) []*client {
	cl := make([]*client, clients)
	for i := range cl {
		cl[i] = &client{id: i, sys: s, ver: ver, ops: newOpStream(s.w, seed, i, s.shardOf)}
	}
	return cl
}

func (c *client) owns(id uint32) bool { return int(id&(clients-1)) == c.id }

// expect fills in what a read of id must return when issued now: exactly the
// version this client wrote last, or, for the other client's key, no less
// than the version already acknowledged to it.
func (c *client) expect(p *pending, id uint32) {
	if c.owns(id) {
		p.want, p.exact = c.ver.issued[id], true
	} else {
		p.want, p.exact = c.ver.acked[id].Load(), false
	}
}

// bump issues the next version of an own key.
func (c *client) bump(id uint32) uint32 {
	c.ver.issued[id]++
	return c.ver.issued[id]
}

func (c *client) checkRead(p *pending, val []byte) bool {
	ver, ok := decodeValue(val, p.op.id, c.sys.w.valSize)
	return ok && (ver == p.want || !p.exact && ver > p.want)
}

func (c *client) ackWrite(id, ver uint32) {
	c.ver.acked[id].Store(ver)
	c.userBytes += uint64(keyLen + c.sys.w.valSize)
}

var spanNames = [...]string{opGet: "client.get", opPut: "client.put", opXWrite: "client.xwrite"}

// record files one answered operation under the window its reply fell in
// and reports whether the phase is over.
func (c *client) record(p *pending, ok bool, t0, t1, start time.Time, winDur time.Duration) (over bool) {
	c.attempted++
	if ok {
		c.acked++
	} else {
		c.failed++
	}
	if p.op.kind != opGet {
		c.writes++
	}
	if c.ring != nil {
		c.ring[c.ringN%clientRing] = span{Name: spanNames[p.op.kind], Op: c.ringN*clients + uint64(c.id),
			StartNs: int64(t0.Sub(epoch)), EndNs: int64(t1.Sub(epoch))}
		c.ringN++
	}
	i := int(t1.Sub(start) / winDur)
	if i >= len(c.wins) {
		return true
	}
	w := &c.wins[i]
	w.ops++
	if p.op.kind == opGet {
		w.rlat.Observe(uint64(t1.Sub(t0)))
	} else {
		w.wlat.Observe(uint64(t1.Sub(t0)))
	}
	return false
}

var (
	replyOK     = []byte("OK\n")
	replyPrefix = []byte("VALUE ")
)

// runWire sends bursts of depth requests and reads their replies until the
// last window has passed. A request's latency runs from the Write that
// carried it to its reply.
func (c *client) runWire(start time.Time, winDur time.Duration) error {
	w := c.sys.w
	conn := c.sys.conns[c.id]
	for {
		c.buf = c.buf[:0]
		for i := 0; i < w.depth; i++ {
			p := &c.pend[i]
			p.op = c.ops.next()
			if p.op.kind == opGet {
				c.expect(p, p.op.id)
				c.buf = append(c.buf, "GET "...)
				c.buf = appendKey(c.buf, p.op.id)
			} else {
				p.want = c.bump(p.op.id)
				c.buf = append(c.buf, "SET "...)
				c.buf = appendKey(c.buf, p.op.id)
				c.buf = append(c.buf, ' ')
				c.buf = appendValue(c.buf, p.op.id, p.want, w.valSize)
			}
			c.buf = append(c.buf, '\n')
		}
		t0 := time.Now()
		if _, err := conn.c.Write(c.buf); err != nil {
			return fmt.Errorf("client %d: %w", c.id, err)
		}
		over := false
		for i := 0; i < w.depth; i++ {
			line, err := conn.r.ReadSlice('\n')
			t1 := time.Now()
			if err != nil {
				return fmt.Errorf("client %d: %w", c.id, err)
			}
			p := &c.pend[i]
			var ok bool
			if p.op.kind == opGet {
				ok = bytes.HasPrefix(line, replyPrefix) &&
					c.checkRead(p, line[len(replyPrefix):len(line)-1])
			} else if ok = bytes.Equal(line, replyOK); ok {
				c.ackWrite(p.op.id, p.want)
			}
			over = c.record(p, ok, t0, t1, start, winDur) || over
		}
		if over {
			return nil
		}
	}
}

// runEmbedded calls the store directly, one operation at a time.
func (c *client) runEmbedded(start time.Time, winDur time.Duration) error {
	w, st := c.sys.w, c.sys.st
	p := &c.pend[0]
	for {
		p.op = c.ops.next()
		c.key = appendKey(c.key[:0], p.op.id)
		var ok bool
		var t0, t1 time.Time
		switch p.op.kind {
		case opGet:
			c.expect(p, p.op.id)
			t0 = time.Now()
			val, err := st.Get(c.key)
			t1 = time.Now()
			ok = err == nil && c.checkRead(p, val)
		case opPut:
			p.want = c.bump(p.op.id)
			c.val = appendValue(c.val[:0], p.op.id, p.want, w.valSize)
			t0 = time.Now()
			err := st.Put(c.key, c.val)
			t1 = time.Now()
			if ok = err == nil; ok {
				c.ackWrite(p.op.id, p.want)
			}
		case opXWrite:
			p.want = c.bump(p.op.id)
			want2 := c.bump(p.op.id2)
			c.val = appendValue(c.val[:0], p.op.id, p.want, w.valSize)
			c.key2 = appendKey(c.key2[:0], p.op.id2)
			c.val2 = appendValue(c.val2[:0], p.op.id2, want2, w.valSize)
			c.batch.Reset()
			c.batch.Put(c.key, c.val)
			c.batch.Put(c.key2, c.val2)
			t0 = time.Now()
			err := st.Write(&c.batch)
			t1 = time.Now()
			if ok = err == nil; ok {
				c.ackWrite(p.op.id, p.want)
				c.ackWrite(p.op.id2, want2)
			}
		}
		if c.record(p, ok, t0, t1, start, winDur) {
			return nil
		}
	}
}

// quantiles are the latency quantiles a window reports: the median, the 90th
// percentile, which is the tail the benchmark bounds, and the 99th. The 95th
// sits on the knee of read_mostly's latency curve (a 1-point shift in the
// share of slow requests moves it 9%, the 90th 2%) and the 99th on two cores
// sits too close to a 4 ms scheduler tick, so neither can be bounded (README,
// "Noise").
var quantiles = [...]float64{0.50, 0.90, 0.99}

type latency [len(quantiles)]float64 // p50, p90, p99

// phase is what the clients together saw in one run of n windows.
type phase struct {
	winOps []float64 // operations per second, per window

	// Medians across windows; latencies in microseconds.
	opsPerS     float64
	write, read latency

	totals
	delta counters // what the program's layers counted meanwhile
	spans []span
}

// runPhase drives every client for n windows of winDur and merges what they
// saw. The clients stop between phases, so the counters are read at rest.
func (s *system) runPhase(cl []*client, n int, winDur time.Duration, traced bool) (*phase, error) {
	for _, c := range cl {
		c.wins = make([]window, n)
		c.totals = totals{}
		c.ring, c.ringN = nil, 0
		if traced {
			c.ring = make([]span, clientRing)
		}
	}
	c0 := s.snapshot()
	errs := make([]error, len(cl))
	var wg sync.WaitGroup
	start := time.Now()
	for i, c := range cl {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if s.w.wire {
				errs[i] = c.runWire(start, winDur)
			} else {
				errs[i] = c.runEmbedded(start, winDur)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	ph := &phase{delta: s.snapshot().sub(c0)}
	for _, c := range cl {
		ph.add(c.totals)
		ph.spans = append(ph.spans, c.ring[:min(c.ringN, clientRing)]...)
	}
	var wq, rq [len(quantiles)][]float64
	for i := 0; i < n; i++ {
		var ops uint64
		var wl, rl hist
		for _, c := range cl {
			ops += c.wins[i].ops
			wl.Merge(&c.wins[i].wlat)
			rl.Merge(&c.wins[i].rlat)
		}
		ph.winOps = append(ph.winOps, float64(ops)/winDur.Seconds())
		for j, q := range quantiles {
			if wl.n > 0 {
				wq[j] = append(wq[j], wl.Quantile(q)/1e3)
			}
			if rl.n > 0 {
				rq[j] = append(rq[j], rl.Quantile(q)/1e3)
			}
		}
	}
	ph.opsPerS = median(ph.winOps)
	for j := range quantiles {
		ph.write[j], ph.read[j] = median(wq[j]), median(rq[j])
	}
	return ph, nil
}
