package main

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"time"

	"repro/internal/kvstore"
	"repro/internal/obs"
	"repro/internal/ptm"
	"repro/internal/server"
	"repro/internal/shard"
)

// system is the program under test: a sharded store, preloaded with every
// key at version 0 and, for wire workloads, an in-process romulusd server on
// a loopback port with one connection per client.
type system struct {
	w       *workload
	st      *shard.Store
	shardOf []uint8 // key id -> shard (the placement is fixed: no splits run)
	srv     *server.Server
	served  chan error
	conns   []*wireConn
}

type wireConn struct {
	c net.Conn
	r *bufio.Reader
}

func (w *workload) storeOptions() shard.Options {
	return shard.Options{
		Shards:         w.shards,
		RegionSize:     w.region,
		Variant:        w.variant,
		Model:          w.model,
		InitialBuckets: 2 * w.keys / w.shards,
	}
}

// preloadBatch keys go into one shard transaction: large enough that the
// preload is not one durability round per key, small enough for any region.
const preloadBatch = 128

// openStore creates the store and writes every key at version 0.
func openStore(w *workload) (*shard.Store, []uint8, error) {
	st, err := shard.Open(w.storeOptions())
	if err != nil {
		return nil, nil, err
	}
	shardOf := make([]uint8, w.keys)
	perShard := make([][]uint32, w.shards)
	var key []byte
	for id := uint32(0); id < uint32(w.keys); id++ {
		key = appendKey(key[:0], id)
		sh := st.ShardFor(key)
		shardOf[id] = uint8(sh)
		perShard[sh] = append(perShard[sh], id)
	}
	for sh, ids := range perShard {
		for lo := 0; lo < len(ids); lo += preloadBatch {
			hi := min(lo+preloadBatch, len(ids))
			err := st.Update(sh, func(tx ptm.Tx, db *kvstore.DB) error {
				var k, v []byte
				for _, id := range ids[lo:hi] {
					k = appendKey(k[:0], id)
					v = appendValue(v[:0], id, 0, w.valSize)
					if err := db.PutTx(tx, k, v); err != nil {
						return err
					}
				}
				return nil
			})
			if err != nil {
				st.Close()
				return nil, nil, fmt.Errorf("preload shard %d: %w", sh, err)
			}
		}
	}
	return st, shardOf, nil
}

// setUp builds a system ready to take load.
func setUp(w *workload) (*system, error) {
	st, shardOf, err := openStore(w)
	if err != nil {
		return nil, err
	}
	s := &system{w: w, st: st, shardOf: shardOf}
	if w.wire {
		if err := s.serve(nil, clients); err != nil {
			st.Close()
			return nil, err
		}
	}
	return s, nil
}

// serve starts a server over the store and dials n connections. spans, when
// non-nil, turns on the server's own request tracing.
func (s *system) serve(spans *obs.SpanRecorder, n int) (err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	s.srv = server.New(s.st, server.Options{Spans: spans})
	s.served = make(chan error, 1)
	go func(srv *server.Server) { s.served <- srv.Serve(ln) }(s.srv)
	defer func() {
		if err != nil {
			s.stopServing()
		}
	}()
	for i := 0; i < n; i++ {
		c, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			return err
		}
		wc := &wireConn{c: c, r: bufio.NewReaderSize(c, 64<<10)}
		s.conns = append(s.conns, wc)
		if line, err := wc.roundTrip([]byte("PING\n")); err != nil || string(line) != "PONG\n" {
			return fmt.Errorf("PING answered %q, %v", line, err)
		}
	}
	return nil
}

func (c *wireConn) roundTrip(req []byte) ([]byte, error) {
	if _, err := c.c.Write(req); err != nil {
		return nil, err
	}
	return c.r.ReadSlice('\n')
}

// stopServing closes the connections and drains the server, so that every
// acknowledged write is in the store and nothing else is running.
func (s *system) stopServing() {
	if s.srv == nil {
		return
	}
	for _, c := range s.conns {
		c.c.Close()
	}
	s.conns = nil
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	s.srv.Shutdown(ctx) // the error only says the deadline cut connections short; ours are closed
	<-s.served
	s.srv = nil
}

func (s *system) close() {
	s.stopServing()
	s.st.Close() // in-memory store: Close only stops engines
}
