package redolog

import "repro/internal/ptm"

// Update implements ptm.PTM: it runs fn as an update transaction on a
// pooled Tx, retrying on conflict aborts until it commits. fn may run
// multiple times and must confine its side effects to the transaction and
// captured variables, as with any STM.
func (e *Engine) Update(fn func(ptm.Tx) error) error {
	t := e.getTx()
	defer e.putTx(t)
	for attempt := 0; ; attempt++ {
		err, aborted := t.tryUpdate(fn)
		if !aborted {
			if err == nil {
				e.updates.Add(1)
			}
			return err
		}
		e.aborts.Add(1)
		backoff(attempt)
	}
}

func (t *Tx) tryUpdate(fn func(ptm.Tx) error) (err error, aborted bool) {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(abortSignal); ok {
				aborted = true
				return
			}
			panic(r)
		}
	}()
	e := t.e
	t.reset(false)
	trips := e.dev.FaultsTripped()
	err = fn(t)
	if e.dev.FaultsTripped() != trips {
		// fn computed its write set from corrupted loads; refuse to commit
		// it (the fault outranks fn's own error, which corrupted loads may
		// have fabricated). Lazy versioning: nothing touched the region.
		return e.dev.FaultError(), false
	}
	if err != nil {
		return err, false // lazy versioning: nothing to undo
	}
	// Serialize committers sharing this log segment.
	e.segMu[t.seg].Lock()
	defer e.segMu[t.seg].Unlock()
	return t.commit(), false
}

// Read implements ptm.PTM: it runs fn as a read-only transaction on a
// pooled Tx, retrying on validation aborts. Loads validate inline against
// the snapshot version, so a completed fn saw a consistent snapshot.
func (e *Engine) Read(fn func(ptm.Tx) error) error {
	t := e.getTx()
	defer e.putTx(t)
	for attempt := 0; ; attempt++ {
		err, aborted := t.tryRead(fn)
		if !aborted {
			e.readTxs.Add(1)
			return err
		}
		e.aborts.Add(1)
		backoff(attempt)
	}
}

func (t *Tx) tryRead(fn func(ptm.Tx) error) (err error, aborted bool) {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(abortSignal); ok {
				aborted = true
				return
			}
			panic(r)
		}
	}()
	d := t.e.dev
	t.reset(true)
	trips := d.FaultsTripped()
	err = fn(t)
	if d.FaultsTripped() != trips {
		err = d.FaultError()
	}
	return err, false
}

func (e *Engine) getTx() *Tx {
	t, _ := e.txs.Get().(*Tx)
	if t == nil {
		t = &Tx{seg: int(e.segs.Add(1)-1) % e.numSegs, writes: make(map[uint64]uint64)}
	}
	t.e = e
	return t
}

func (e *Engine) putTx(t *Tx) {
	t.e = nil
	e.txs.Put(t)
}
