package main

import (
	"errors"
	"fmt"
	"runtime"
	"time"

	"repro/internal/pmem"
	"repro/internal/shard"
)

// crashImages captures what a power failure would leave on every device at
// the first write-back of one extra Put on shard 0, so that shard recovers
// from the middle of a transaction. The Put is never counted as
// acknowledged: after recovery its key may hold the old or the new version.
// The store must be at rest.
func (s *system) crashImages(ver *versions) (images [][]byte, inflight uint32, err error) {
	for int(inflight) < len(s.shardOf) && s.shardOf[inflight] != 0 {
		inflight++
	}
	if int(inflight) == len(s.shardOf) {
		return nil, 0, errors.New("no key routes to shard 0")
	}
	devs := s.st.Devices()
	devs[0].SetHooks(&pmem.Hooks{Pwb: func(uint64) {
		if images == nil {
			for _, d := range devs {
				images = append(images, d.CrashImage(pmem.DropAll))
			}
		}
	}})
	defer devs[0].SetHooks(nil)
	key := appendKey(nil, inflight)
	val := appendValue(nil, inflight, ver.acked[inflight].Load()+1, s.w.valSize)
	if err := s.st.Put(key, val); err != nil {
		return nil, 0, fmt.Errorf("crash probe put: %w", err)
	}
	if images == nil {
		return nil, 0, errors.New("crash probe: the put issued no write-back")
	}
	return images, inflight, nil
}

// reopen restarts a store from crash images, as a machine would after the
// power came back.
func reopen(w *workload, images [][]byte) (*shard.Store, error) {
	devs := make([]*pmem.Device, len(images))
	for i, img := range images {
		devs[i] = pmem.FromImage(img, w.model)
	}
	return shard.Reopen(devs, w.storeOptions())
}

// verify reads every key of a recovered store and counts those that do not
// hold exactly the last acknowledged version (the in-flight key may also
// hold the next one).
func verify(st *shard.Store, w *workload, ver *versions, inflight uint32) (failed uint64) {
	var key []byte
	for id := uint32(0); id < uint32(w.keys); id++ {
		key = appendKey(key[:0], id)
		val, err := st.Get(key)
		got, ok := decodeValue(val, id, w.valSize)
		want := ver.acked[id].Load()
		if err != nil || !ok || got != want && !(id == inflight && got == want+1) {
			failed++
		}
	}
	return failed
}

type recovery struct {
	medianMs float64
	checked  uint64
	failed   uint64
}

// crashRecoverVerify is the correctness gate of every run: crash, recover
// several times (timing each), and check a recovered store key by key.
func (s *system) crashRecoverVerify(ver *versions, reps int, fill time.Duration) (recovery, error) {
	images, inflight, err := s.crashImages(ver)
	if err != nil {
		return recovery{}, err
	}
	var r recovery
	var ms []float64
	for begun := time.Now(); moreReps(len(ms), reps, begun, fill); {
		runtime.GC() // the previous repetition's devices, outside the timing
		t0 := time.Now()
		st, err := reopen(s.w, images)
		ms = append(ms, float64(time.Since(t0))/1e6)
		if err != nil {
			return recovery{}, fmt.Errorf("reopen after crash: %w", err)
		}
		if len(ms) == 1 {
			r.checked = uint64(s.w.keys)
			r.failed = verify(st, s.w, ver, inflight)
		}
		st.Close()
	}
	r.medianMs = median(ms)
	return r, nil
}
