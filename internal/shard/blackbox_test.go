package shard

import (
	"testing"

	"repro/internal/blackbox"
	"repro/internal/pmem"
)

// TestBlackboxRoundTrip pins the shard wiring of the flight recorder: a
// record appended through RecordFlight survives the device images into the
// next open's FlightReports, and the reopen stamps its own recovery record
// for the open after that.
func TestBlackboxRoundTrip(t *testing.T) {
	opts := Options{Shards: 2, RegionSize: 256 << 10, CoordSize: 32 << 10, Blackbox: true}
	st, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	if !st.HasFlightRecorder() {
		t.Fatal("Blackbox store reports no flight recorder")
	}
	for _, rep := range st.FlightReports() {
		if rep == nil || !rep.Empty() {
			t.Fatalf("fresh store flight report = %+v, want present and empty", rep)
		}
	}
	if err := st.Put([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	st.RecordFlight(0, blackbox.Record{Kind: blackbox.KindBatchStart, BatchSeq: 9, Req: 4, Ops: 1, Conns: 1})
	st.RecordFlight(0, blackbox.Record{Kind: blackbox.KindBatchCommit, BatchSeq: 9, Ops: 1})
	if got := st.reg.Snapshot().Counters["blackbox_record_total"]; got != 2 {
		t.Fatalf("blackbox_record_total = %d, want 2", got)
	}

	// Rebuild devices from crash images — the records must be on the media,
	// not in volatile state.
	devs := st.Devices()
	imgs := make([]*pmem.Device, len(devs))
	for i, d := range devs {
		imgs[i] = pmem.FromImage(d.CrashImage(pmem.CrashPolicy{}), pmem.ModelCLWB)
	}
	st2, err := Reopen(imgs, opts)
	if err != nil {
		t.Fatal(err)
	}
	rep := st2.FlightReports()[0]
	if rep.Empty() || rep.MaxBatchStarted != 9 || rep.MaxBatchCommitted != 9 {
		t.Fatalf("replayed report = %+v, want batch 9 started and committed", rep)
	}
	snap := st2.reg.Snapshot().Counters
	if got := snap["blackbox_replay_records"]; got != 2 {
		t.Fatalf("blackbox_replay_records = %d, want 2", got)
	}
	if got := snap["blackbox_reformatted_total"]; got != 0 {
		t.Fatalf("blackbox_reformatted_total = %d, want 0", got)
	}
	if rep.Records[0].Req != 4 {
		t.Fatalf("span checkpoint req = %d, want 4", rep.Records[0].Req)
	}
	if got, err := st2.Get([]byte("k")); err != nil || string(got) != "v" {
		t.Fatalf("Get after reopen = %q, %v", got, err)
	}

	// The reopen stamped a recovery record: a third open replays it.
	devs2 := st2.Devices()
	imgs2 := make([]*pmem.Device, len(devs2))
	for i, d := range devs2 {
		imgs2[i] = pmem.FromImage(d.CrashImage(pmem.CrashPolicy{}), pmem.ModelCLWB)
	}
	st3, err := Reopen(imgs2, opts)
	if err != nil {
		t.Fatal(err)
	}
	if rep := st3.FlightReports()[0]; rep.Recoveries != 1 {
		t.Fatalf("third open replayed %d recoveries, want 1: %+v", rep.Recoveries, rep)
	}
}

// TestBlackboxOffByDefault pins that stores without the option neither
// reserve a tail nor record flights, and that RecordFlight is a safe no-op.
func TestBlackboxOffByDefault(t *testing.T) {
	st, err := Open(Options{Shards: 1, RegionSize: 256 << 10, CoordSize: 32 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if st.HasFlightRecorder() {
		t.Fatal("default store has a flight recorder")
	}
	if _, size := st.Engine(0).ReservedTail(); size >= blackbox.MinSize {
		t.Fatalf("default store reserved %d tail bytes", size)
	}
	st.RecordFlight(0, blackbox.Record{Kind: blackbox.KindBatchStart})
	if rep := st.FlightReports()[0]; rep != nil {
		t.Fatalf("flight report on a recorder-less store: %+v", rep)
	}
	if _, ok := st.reg.Snapshot().Counters["blackbox_record_total"]; ok {
		t.Fatal("blackbox_* metrics published with the recorder off")
	}
}

// TestBlackboxReopenWithoutTail pins compatibility: a store created WITHOUT
// the reserve reopens fine with Blackbox on — the header governs the
// layout, there is just no tail to record into.
func TestBlackboxReopenWithoutTail(t *testing.T) {
	plain := Options{Shards: 1, RegionSize: 256 << 10, CoordSize: 32 << 10}
	st, err := Open(plain)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Put([]byte("a"), []byte("1")); err != nil {
		t.Fatal(err)
	}
	devs := st.Devices()
	imgs := make([]*pmem.Device, len(devs))
	for i, d := range devs {
		imgs[i] = pmem.FromImage(d.CrashImage(pmem.CrashPolicy{}), pmem.ModelCLWB)
	}
	withBB := plain
	withBB.Blackbox = true
	st2, err := Reopen(imgs, withBB)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if got, err := st2.Get([]byte("a")); err != nil || string(got) != "1" {
		t.Fatalf("Get = %q, %v", got, err)
	}
	if st2.HasFlightRecorder() {
		t.Fatal("tail-less device grew a flight recorder")
	}
}
