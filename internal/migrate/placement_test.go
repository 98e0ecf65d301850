package migrate

import (
	"hash/fnv"
	"testing"

	"repro/internal/pmem"
)

func TestIdentityMatchesHashModN(t *testing.T) {
	for _, shards := range []int{1, 2, 3, 4, 7} {
		p := Identity(shards, DefaultSlotsPerShard)
		for i := 0; i < 500; i++ {
			key := []byte{byte(i), byte(i >> 8), 'k'}
			h := fnv.New64a()
			h.Write(key)
			want := int(h.Sum64() % uint64(shards))
			if got := p.Slots[h.Sum64()%uint64(p.NumSlots)]; got != want {
				t.Fatalf("shards=%d key %v: identity placement routes to %d, hash%%N to %d", shards, key, got, want)
			}
		}
	}
}

func TestRecordRoundtrip(t *testing.T) {
	dev := pmem.New(64<<10, pmem.ModelDRAM)
	base, size := dev.Size()-RecordSize, RecordSize
	if got := ReadRecord(dev, base, size); got != nil {
		t.Fatalf("fresh device decoded a record: %+v", got)
	}
	p := Identity(3, 16)
	p.Journal = Journal{Phase: PhaseCopy, ID: 7, Src: 1, Dst: 2, Slots: []int{5, 9, 33}}
	if err := WriteRecord(dev, base, size, p); err != nil {
		t.Fatal(err)
	}
	got := ReadRecord(dev, base, size)
	if got == nil {
		t.Fatal("no record after publish")
	}
	if got.Version != 1 || got.NumSlots != 48 || got.NumShards != 3 {
		t.Fatalf("bad header fields: %+v", got)
	}
	if got.Journal.Phase != PhaseCopy || got.Journal.Src != 1 || got.Journal.Dst != 2 || len(got.Journal.Slots) != 3 {
		t.Fatalf("journal did not survive: %+v", got.Journal)
	}
	for i := range p.Slots {
		if got.Slots[i] != p.Slots[i] {
			t.Fatalf("slot %d: got %d want %d", i, got.Slots[i], p.Slots[i])
		}
	}
	// Second publish bumps the sequence and lands in the other slot; the
	// reader follows the newest.
	p2 := got.Clone()
	p2.Journal = Journal{}
	p2.Slots[5] = 2
	if err := WriteRecord(dev, base, size, p2); err != nil {
		t.Fatal(err)
	}
	got2 := ReadRecord(dev, base, size)
	if got2 == nil || got2.Version != 2 || got2.Slots[5] != 2 || got2.Journal.Phase != PhaseNone {
		t.Fatalf("second publish not visible: %+v", got2)
	}
}

// A torn publish (arbitrary garbage over the slot being written) must
// leave the previous record readable: the checksum rejects the torn slot.
func TestTornPublishKeepsPreviousRecord(t *testing.T) {
	dev := pmem.New(64<<10, pmem.ModelDRAM)
	base, size := dev.Size()-RecordSize, RecordSize
	p := Identity(2, 16)
	if err := WriteRecord(dev, base, size, p); err != nil {
		t.Fatal(err)
	}
	// Record 1 landed in slot 0; a publish of record 2 targets slot 1.
	// Simulate the tear: partial header with the new sequence, no payload.
	half := size / 2
	var hdr [recHdrSize]byte
	copy(hdr[:], []byte("ROMPLCE\x00garbage!"))
	dev.StoreBytes(base+half, hdr[:])
	dev.PwbRange(base+half, recHdrSize)
	dev.Psync()
	got := ReadRecord(dev, base, size)
	if got == nil || got.Version != 1 || got.NumShards != 2 {
		t.Fatalf("torn publish destroyed the previous record: %+v", got)
	}
}

// TestTornSeqWordKeepsNewestRecord: a crash persists stores at 8-byte
// granularity, so a publish into the OLDER slot can land nothing but its new
// sequence word. The slot's stale payload must not come back as the newest
// record (found by the migrate crash campaign: a cutover record regressed to
// its copy-phase predecessor mid-recovery, and the rollback arm then wiped
// the only copy of the moved keys).
func TestTornSeqWordKeepsNewestRecord(t *testing.T) {
	dev := pmem.New(64<<10, pmem.ModelDRAM)
	base, size := dev.Size()-RecordSize, RecordSize
	p := Identity(2, 16)
	if err := WriteRecord(dev, base, size, p); err != nil { // seq 1, slot 0
		t.Fatal(err)
	}
	p2 := p.Clone()
	p2.NumShards = 3
	if err := WriteRecord(dev, base, size, p2); err != nil { // seq 2, slot 1
		t.Fatal(err)
	}
	// The publish of seq 3 targets slot 0; only its seq word reaches media.
	dev.Store64(base+8, 3)
	dev.Pwb(base + 8)
	dev.Psync()
	got := ReadRecord(dev, base, size)
	if got == nil || got.Version != 2 || got.NumShards != 3 {
		t.Fatalf("torn seq word resurrected a stale record: %+v", got)
	}
}

type fakeTarget struct {
	shards    int
	owned     map[int][]int
	copySteps int
	cleanups  int
	journal   Phase
	aborted   bool
}

func (f *fakeTarget) NumShards() int { return f.shards }
func (f *fakeTarget) AddShard() (int, error) {
	f.shards++
	return f.shards - 1, nil
}
func (f *fakeTarget) OwnedSlots(sh int) []int { return f.owned[sh] }
func (f *fakeTarget) MigrationBegin(src, dst int, slots []int) error {
	f.journal = PhaseCopy
	return nil
}
func (f *fakeTarget) MigrationCopyStep(maxKeys int) (int, int, bool, error) {
	f.copySteps++
	return maxKeys, maxKeys * 10, f.copySteps >= 3, nil
}
func (f *fakeTarget) MigrationCutover(maxKeys int) (int, error) {
	f.journal = PhaseCleanup
	return 2, nil
}
func (f *fakeTarget) MigrationCleanupStep(maxKeys int) (int, bool, error) {
	f.cleanups++
	if f.cleanups >= 2 {
		f.journal = PhaseNone
		return 1, true, nil
	}
	return maxKeys, false, nil
}
func (f *fakeTarget) MigrationAbort() error {
	f.aborted = true
	f.journal = PhaseNone
	return nil
}

func TestDriverStateMachine(t *testing.T) {
	ft := &fakeTarget{shards: 2, owned: map[int][]int{0: {0, 2, 4, 6}, 1: {1, 3, 5, 7}}}
	d := New(ft, Options{BatchKeys: 8})
	dst, err := d.Begin(0, -1)
	if err != nil {
		t.Fatal(err)
	}
	if dst != 2 || ft.shards != 3 {
		t.Fatalf("expected fresh shard 2, got dst=%d shards=%d", dst, ft.shards)
	}
	if st := d.Status(); !st.Active || st.Phase != "copy" || st.MovingSlots != 2 {
		t.Fatalf("post-begin status: %+v", st)
	}
	if _, err := d.Begin(1, -1); err != ErrBusy {
		t.Fatalf("second Begin: want ErrBusy, got %v", err)
	}
	if err := d.Run(); err != nil {
		t.Fatal(err)
	}
	st := d.Status()
	if st.Active || st.Phase != "done" || st.CopiedKeys != 24 || st.RecopiedKeys != 2 || st.DeletedKeys != 9 {
		t.Fatalf("terminal status: %+v", st)
	}
	if ft.journal != PhaseNone {
		t.Fatalf("journal not cleared: %v", ft.journal)
	}
}

func TestDriverStopAborts(t *testing.T) {
	ft := &fakeTarget{shards: 2, owned: map[int][]int{0: {0, 2, 4, 6}}}
	d := New(ft, Options{BatchKeys: 8})
	if _, err := d.Begin(0, -1); err != nil {
		t.Fatal(err)
	}
	d.Stop()
	done, err := d.Step()
	if !done || err != ErrStopped {
		t.Fatalf("stopped step: done=%v err=%v", done, err)
	}
	if !ft.aborted {
		t.Fatal("target not aborted")
	}
	if st := d.Status(); st.Active || st.Phase != "aborted" {
		t.Fatalf("status after stop: %+v", st)
	}
}
