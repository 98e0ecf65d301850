package main

import (
	"bytes"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/kvstore"
	"repro/internal/obs"
	"repro/internal/pmem"
	"repro/internal/ptm"
	"repro/internal/server"
	"repro/internal/shard"
)

// The ladder drives the workload's write (and read) through each layer's
// public entry in turn, from a bare device up to the loopback wire, with one
// goroutine and the same key sequence on every rung. A rung's figure is the
// mean over its operations, the slowest 1% left out; the difference between
// two neighbouring rungs is the upper layer's own cost. It is a mean because
// costs add and medians do not, and because a single-goroutine update on a
// model with latencies has two modes 10 us apart (core's flat combiner yields
// once per update, and the yield wakes an idle thread through a futex when
// the scheduler has none spinning): the slow mode's share grows from a
// quarter on the core rung to two thirds on the Submit rung, so a median
// flips between the modes from rung to rung and run to run. The slowest 1%
// are left out so that one 4 ms scheduler tick in 20,000 operations does not
// show. Rungs run one after another on stores of their own, so a span's
// Parent says which layer would have called it, not that the two intervals
// nest in time.
type ladder struct {
	persistNs                float64
	coreUpdateNs, coreReadNs float64
	kvPutNs, kvGetNs         float64
	shardPutNs, shardGetNs   float64
	xwriteNs                 float64
	submitNs                 float64
	wireSetNs, wireGetNs     float64
	pwbsPerPut, fencesPerPut float64 // devices' counts over the shard.put rung
	spanPhaseNs              map[string]float64
	spans                    []span
}

// ladderSpans is how many operations of each rung are kept as spans.
const ladderSpans = 1000

type ladderRun struct {
	w     *workload
	seed  int64
	ops   int
	spans []span
	err   error // the first rung failure; later rungs are skipped
}

// rung times fn over the ladder's key sequence and returns the mean of all
// but the slowest 1% in nanoseconds. val is the value to write (reads ignore it).
func (l *ladderRun) rung(name, parent string, fn func(id uint32, key, val []byte) error) float64 {
	if l.err != nil {
		return 0
	}
	keys := newOpStream(l.w, l.seed, clients, nil) // a stream of its own, the same on every rung
	every := max(l.ops/ladderSpans, 1)
	var h hist
	var key, val []byte
	for i := 0; i < l.ops; i++ {
		id := keys.keyID()
		key = appendKey(key[:0], id)
		val = appendValue(val[:0], id, uint32(i+1), l.w.valSize)
		t0 := time.Now()
		err := fn(id, key, val)
		t1 := time.Now()
		if err != nil {
			l.err = fmt.Errorf("ladder rung %s: %w", name, err)
			return 0
		}
		h.Observe(uint64(t1.Sub(t0)))
		if i%every == 0 {
			l.spans = append(l.spans, span{Name: name, Op: uint64(i), Parent: parent,
				StartNs: int64(t0.Sub(epoch)), EndNs: int64(t1.Sub(epoch))})
		}
	}
	return h.TrimmedMean(0.99)
}

// setOp is what the server runs for SET inside a group-commit transaction.
func setOp(key, val []byte) server.OpFunc {
	return func(tx ptm.Tx, db *kvstore.DB) (string, error) {
		if err := db.PutTx(tx, key, val); err != nil {
			return "", err
		}
		if err := db.DeleteTx(tx, shard.SidecarKey("exp", key)); err != nil {
			return "", err
		}
		return "OK", nil
	}
}

func runLadder(w *workload, seed int64, ops int) (*ladder, error) {
	l := &ladderRun{w: w, seed: seed, ops: ops}
	out := &ladder{}
	wholeRegion := w.region * w.shards // the single-engine rungs hold every key

	// Rung 0, pmem: one value stored and persisted on a bare device.
	stride := (w.valSize + pmem.LineSize - 1) &^ (pmem.LineSize - 1)
	dev := pmem.New(w.keys*stride, w.model)
	out.persistNs = l.rung("pmem.persist", "core.update", func(id uint32, _, val []byte) error {
		off := int(id) * stride
		dev.StoreBytes(off, val)
		dev.PwbRange(off, len(val))
		dev.Pfence()
		dev.Psync()
		return nil
	})

	// Rung 1, core: one transaction storing (loading) the value in a block
	// allocated beforehand.
	eng, err := core.New(wholeRegion, core.Config{Variant: w.variant, Model: w.model})
	if err != nil {
		return nil, err
	}
	blocks := make([]ptm.Ptr, w.keys)
	for lo := 0; lo < w.keys; lo += preloadBatch {
		err := eng.Update(func(tx ptm.Tx) error {
			for i := lo; i < min(lo+preloadBatch, w.keys); i++ {
				p, err := tx.Alloc(w.valSize)
				if err != nil {
					return err
				}
				blocks[i] = p
			}
			return nil
		})
		if err != nil {
			return nil, fmt.Errorf("ladder: allocating blocks: %w", err)
		}
	}
	out.coreUpdateNs = l.rung("core.update", "kvstore.put", func(id uint32, _, val []byte) error {
		return eng.Update(func(tx ptm.Tx) error {
			tx.StoreBytes(blocks[id], val)
			return nil
		})
	})
	buf := make([]byte, w.valSize)
	out.coreReadNs = l.rung("core.read", "kvstore.get", func(id uint32, _, _ []byte) error {
		return eng.Read(func(tx ptm.Tx) error {
			tx.LoadBytes(blocks[id], buf)
			return nil
		})
	})
	eng.Close()

	// Rung 2, kvstore: DB.Put and DB.Get on a preloaded map.
	db, err := kvstore.Open(kvstore.Options{RegionSize: wholeRegion, Variant: w.variant,
		Model: w.model, InitialBuckets: 2 * w.keys})
	if err != nil {
		return nil, err
	}
	var batch kvstore.Batch
	for lo := 0; lo < w.keys; lo += preloadBatch {
		batch.Reset()
		for id := lo; id < min(lo+preloadBatch, w.keys); id++ {
			batch.Put(appendKey(nil, uint32(id)), appendValue(nil, uint32(id), 0, w.valSize))
		}
		if err := db.Write(&batch); err != nil {
			return nil, fmt.Errorf("ladder: preloading kvstore: %w", err)
		}
	}
	out.kvPutNs = l.rung("kvstore.put", "shard.put", func(_ uint32, key, val []byte) error {
		return db.Put(key, val)
	})
	out.kvGetNs = l.rung("kvstore.get", "shard.get", func(_ uint32, key, _ []byte) error {
		_, err := db.Get(key)
		return err
	})
	db.Close()

	// Rungs 3 to 5 share one store, built exactly as the run's own.
	st, shardOf, err := openStore(w)
	if err != nil {
		return nil, err
	}
	sys := &system{w: w, st: st, shardOf: shardOf}
	defer sys.close()

	// Rung 3, shard: Store.Put and Store.Get. With one goroutine on a fresh
	// store the devices' counts over this rung repeat exactly.
	d0 := sys.snapshot()
	out.shardPutNs = l.rung("shard.put", "server.submit", func(_ uint32, key, val []byte) error {
		return st.Put(key, val)
	})
	d := sys.snapshot().sub(d0)
	out.pwbsPerPut, out.fencesPerPut = d.per(cPwbs, uint64(ops)), d.per(cFences, uint64(ops))
	out.shardGetNs = l.rung("shard.get", "server.wire_get", func(_ uint32, key, _ []byte) error {
		_, err := st.Get(key)
		return err
	})

	// The two-key Write needs two shards to cross; a one-shard workload gets
	// a two-shard store of the same shape for this rung alone.
	xst, xshardOf := st, shardOf
	if w.shards < 2 {
		w2 := *w
		w2.shards = 2
		if xst, xshardOf, err = openStore(&w2); err != nil {
			return nil, err
		}
		defer xst.Close()
	}
	var key2, val2 []byte
	out.xwriteNs = l.rung("shard.xwrite", "", func(id uint32, key, val []byte) error {
		id2 := id
		for xshardOf[id2] == xshardOf[id] {
			id2 = (id2 + 1) & uint32(w.keys-1)
		}
		key2 = appendKey(key2[:0], id2)
		val2 = appendValue(val2[:0], id2, 1, w.valSize)
		batch.Reset()
		batch.Put(key, val)
		batch.Put(key2, val2)
		return xst.Write(&batch)
	})

	// Rung 4, server.group: the same SET submitted to the group committer.
	com := server.NewCommitter(st, server.GroupOptions{})
	out.submitNs = l.rung("server.submit", "server.wire_set", func(id uint32, key, val []byte) error {
		if reply := com.Submit(int(shardOf[id]), 0, "set", nil, setOp(key, val)).Wait(); reply != "OK" {
			return fmt.Errorf("SET answered %q", reply)
		}
		return nil
	})
	com.Close()

	// Rung 5, server.wire: SET and GET on one loopback connection, one
	// request outstanding.
	var req []byte
	wireSet := func(_ uint32, key, val []byte) error {
		req = append(append(append(append(req[:0], "SET "...), key...), ' '), val...)
		reply, err := sys.conns[0].roundTrip(append(req, '\n'))
		if err == nil && !bytes.Equal(reply, replyOK) {
			err = fmt.Errorf("SET answered %q", reply)
		}
		return err
	}
	if err := sys.serve(nil, 1); err != nil {
		return nil, err
	}
	out.wireSetNs = l.rung("server.wire_set", "", wireSet)
	out.wireGetNs = l.rung("server.wire_get", "", func(_ uint32, key, _ []byte) error {
		req = append(append(req[:0], "GET "...), key...)
		reply, err := sys.conns[0].roundTrip(append(req, '\n'))
		if err == nil && !bytes.HasPrefix(reply, replyPrefix) {
			err = fmt.Errorf("GET answered %q", reply)
		}
		return err
	})
	sys.stopServing()

	// The same SETs against a server with its own request spans on: the mean
	// of each phase says where inside the server a request's time goes.
	reg := obs.NewRegistry()
	if err := sys.serve(obs.NewSpanRecorder(reg, 1024), 1); err != nil {
		return nil, err
	}
	l.ops = max(ops/4, 1)
	l.rung("server.wire_set.traced", "", wireSet)
	sys.stopServing()
	out.spanPhaseNs = map[string]float64{}
	for _, ph := range []string{obs.PhaseParse, obs.PhaseQueueWait, obs.PhaseBatchForm, obs.PhasePsyncWait, obs.PhaseReplyFlush} {
		h := reg.Histogram("net_span_" + ph + "_ns")
		out.spanPhaseNs[ph] = div(float64(h.Sum()), float64(h.Count()))
	}
	out.spans = l.spans
	return out, l.err
}
