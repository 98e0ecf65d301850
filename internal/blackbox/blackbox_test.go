package blackbox

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"repro/internal/pmem"
)

const ringBase = 128 // line-aligned scratch offset inside the test device

func testRing(t *testing.T, size int) (*pmem.Device, *Recorder) {
	t.Helper()
	dev := pmem.New(ringBase+size, pmem.ModelCLWB)
	rec, rep, err := Open(dev, ringBase, size)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Empty() || rep.Reformatted {
		t.Fatalf("fresh ring replayed %+v", rep)
	}
	return dev, rec
}

// TestAppendSurvivesCrashImage pins the durability contract: every record
// appended before a crash point is replayable from the crash image, because
// Append fences each record.
func TestAppendSurvivesCrashImage(t *testing.T) {
	dev, rec := testRing(t, DefaultSize)
	rec.Append(Record{Kind: KindBatchStart, BatchSeq: 7, Req: 42, Ops: 3, Conns: 2})
	rec.Append(Record{Kind: KindBatchCommit, BatchSeq: 7, Ops: 3})
	rec.Append(Record{Kind: KindBatchStart, BatchSeq: 8, Req: 99, Ops: 1, Conns: 1})

	img := dev.CrashImage(pmem.CrashPolicy{})
	rep := Inspect(pmem.FromImage(img, pmem.ModelCLWB), ringBase, DefaultSize)
	if len(rep.Records) != 3 {
		t.Fatalf("replayed %d records, want 3: %+v", len(rep.Records), rep.Records)
	}
	if rep.MaxBatchStarted != 8 || rep.MaxBatchCommitted != 7 {
		t.Fatalf("summary started=%d committed=%d, want 8/7", rep.MaxBatchStarted, rep.MaxBatchCommitted)
	}
	if len(rep.InFlight) != 1 || rep.InFlight[0] != 8 {
		t.Fatalf("in-flight = %v, want [8]", rep.InFlight)
	}
	if rep.Records[2].Req != 99 {
		t.Fatalf("span checkpoint req = %d, want 99", rep.Records[2].Req)
	}
}

// TestReopenContinuesSeq pins that Open resumes the seq counter after the
// newest surviving record, so replay ordering stays total across reopens.
func TestReopenContinuesSeq(t *testing.T) {
	dev, rec := testRing(t, MinSize)
	rec.Append(Record{Kind: KindBatchStart, BatchSeq: 1, Ops: 1, Conns: 1})
	rec.Append(Record{Kind: KindBatchCommit, BatchSeq: 1, Ops: 1})

	rec2, rep, err := Open(dev, ringBase, MinSize)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Records) != 2 || rep.Records[1].Seq != 2 {
		t.Fatalf("replay = %+v", rep.Records)
	}
	rec2.Recovery()
	_, rep2, err := Open(dev, ringBase, MinSize)
	if err != nil {
		t.Fatal(err)
	}
	if got := rep2.Records[len(rep2.Records)-1]; got.Seq != 3 || got.Kind != KindRecovery {
		t.Fatalf("newest record = %+v, want seq 3 recovery", got)
	}
	if rep2.Recoveries != 1 {
		t.Fatalf("recoveries = %d, want 1", rep2.Recoveries)
	}
}

// TestRingWrapKeepsNewest pins the wrap semantics: a ring of N slots
// retains exactly the newest N records, oldest evicted first.
func TestRingWrapKeepsNewest(t *testing.T) {
	dev, rec := testRing(t, MinSize) // 4 slots
	for b := uint64(1); b <= 10; b++ {
		rec.Append(Record{Kind: KindBatchStart, BatchSeq: b, Ops: 1, Conns: 1})
	}
	_, rep, err := Open(dev, ringBase, MinSize)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Records) != 4 {
		t.Fatalf("retained %d records, want 4", len(rep.Records))
	}
	for i, r := range rep.Records {
		if want := uint64(7 + i); r.Seq != want {
			t.Fatalf("record %d seq = %d, want %d", i, r.Seq, want)
		}
	}
	if rep.MaxBatchStarted != 10 {
		t.Fatalf("max started = %d, want 10", rep.MaxBatchStarted)
	}
}

// TestTornRecordDropped pins that a corrupted slot fails its checksum and
// replays as absent — never as garbage.
func TestTornRecordDropped(t *testing.T) {
	dev, rec := testRing(t, DefaultSize)
	rec.Append(Record{Kind: KindBatchStart, BatchSeq: 1, Ops: 1, Conns: 1})
	rec.Append(Record{Kind: KindBatchCommit, BatchSeq: 1, Ops: 1})
	// Flip a byte inside the newest record's slot (slot 1).
	off := ringBase + headerSize + RecordSize + 5
	dev.Store8(off, dev.Load8(off)^0xff)
	rep := Inspect(dev, ringBase, DefaultSize)
	if len(rep.Records) != 1 || rep.Records[0].Kind != KindBatchStart {
		t.Fatalf("replay after torn slot = %+v, want just the start record", rep.Records)
	}
	// The start now has no surviving commit: it reads as in-flight.
	if len(rep.InFlight) != 1 || rep.InFlight[0] != 1 {
		t.Fatalf("in-flight = %v, want [1]", rep.InFlight)
	}
}

// TestCorruptHeaderReformats pins that a damaged ring header reformats
// (flight data is diagnostic, recovery must not block on it) and says so.
func TestCorruptHeaderReformats(t *testing.T) {
	dev, rec := testRing(t, DefaultSize)
	rec.Append(Record{Kind: KindBatchStart, BatchSeq: 1, Ops: 1, Conns: 1})
	dev.Store64(ringBase, 0xdeadbeef)
	rec2, rep, err := Open(dev, ringBase, DefaultSize)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Reformatted || !rep.Empty() {
		t.Fatalf("corrupt header replayed %+v, want empty reformatted report", rep)
	}
	rec2.Append(Record{Kind: KindBatchStart, BatchSeq: 5, Ops: 1, Conns: 1})
	if rep2 := Inspect(dev, ringBase, DefaultSize); len(rep2.Records) != 1 || rep2.Records[0].Seq != 1 {
		t.Fatalf("post-reformat replay = %+v", rep2.Records)
	}
}

// TestTooSmall pins the reservation guard.
func TestTooSmall(t *testing.T) {
	dev := pmem.New(ringBase+MinSize, pmem.ModelCLWB)
	if _, _, err := Open(dev, ringBase, MinSize-1); err == nil {
		t.Fatal("Open accepted a sub-minimum ring")
	}
	if _, _, err := Open(dev, ringBase+1, MinSize); err == nil {
		t.Fatal("Open accepted an unaligned base")
	}
}

// TestReportRendering smoke-tests both output forms.
func TestReportRendering(t *testing.T) {
	dev, rec := testRing(t, DefaultSize)
	rec.now = func() time.Time { return time.Unix(1, 0) }
	rec.Append(Record{Kind: KindBatchStart, BatchSeq: 3, Req: 11, Ops: 2, Conns: 2})
	rep := Inspect(dev, ringBase, DefaultSize)
	rep.Shard = 1

	var txt, js bytes.Buffer
	if err := rep.WriteText(&txt); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"shard 1", "batch_start", "batch=3", "req=11", "1970-01-01T00:00:01Z"} {
		if !strings.Contains(txt.String(), want) {
			t.Errorf("text report missing %q:\n%s", want, txt.String())
		}
	}
	if err := rep.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"kind":"batch_start"`, `"max_batch_started":3`, `"in_flight":[3]`} {
		if !strings.Contains(js.String(), want) {
			t.Errorf("json report missing %q:\n%s", want, js.String())
		}
	}
}
