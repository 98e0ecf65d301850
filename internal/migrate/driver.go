package migrate

import (
	"errors"
	"fmt"
	"sync"
)

// Target is the store surface the driver operates on (implemented by
// *shard.Store). Every mutating step is itself crash-safe: the target
// journals phase transitions durably and its recovery resolves a partial
// step to exactly one owner per key.
type Target interface {
	// NumShards reports the current shard count.
	NumShards() int
	// AddShard brings a fresh, empty shard online (owning no slots) and
	// returns its index.
	AddShard() (int, error)
	// OwnedSlots lists the placement slots shard currently owns.
	OwnedSlots(shard int) []int
	// MigrationBegin journals PhaseCopy for slots moving src -> dst.
	MigrationBegin(src, dst int, slots []int) error
	// MigrationCopyStep copies at most maxKeys of the moving keyspace to
	// dst in one durable batch, reporting progress and completion.
	MigrationCopyStep(maxKeys int) (keys, bytes int, done bool, err error)
	// MigrationCutover fences writes to the moving slots, re-copies keys
	// dirtied during the copy phase (in batches of maxKeys), and publishes
	// the ownership flip (PhaseCleanup) — the atomic commit point.
	MigrationCutover(maxKeys int) (recopied int, err error)
	// MigrationCleanupStep deletes at most maxKeys moved keys still on the
	// source shard; done reports the journal returned to PhaseNone.
	MigrationCleanupStep(maxKeys int) (deleted int, done bool, err error)
	// MigrationAbort rolls an unfinished copy phase back (wipes partial
	// copies from dst, journals PhaseNone).
	MigrationAbort() error
}

// Options tune a Driver.
type Options struct {
	// BatchKeys bounds the keys moved per durable batch (0 = 64). Smaller
	// batches bound the write-fence window at cutover; larger ones
	// amortize psyncs during copy.
	BatchKeys int
}

// ErrBusy is returned by Begin when a migration is already in flight.
var ErrBusy = errors.New("migrate: migration already in progress")

// ErrStopped reports a migration aborted by Stop before its cutover.
var ErrStopped = errors.New("migrate: stopped before cutover")

// Status is a point-in-time driver snapshot (the STATS placement section
// and MIGRATION admin reply marshal it).
type Status struct {
	Active       bool   `json:"active"`
	Phase        string `json:"phase,omitempty"` // copy | cutover | cleanup | done | aborted
	Src          int    `json:"src,omitempty"`
	Dst          int    `json:"dst,omitempty"`
	MovingSlots  int    `json:"moving_slots,omitempty"`
	CopiedKeys   int    `json:"copied_keys,omitempty"`
	CopiedBytes  int    `json:"copied_bytes,omitempty"`
	RecopiedKeys int    `json:"recopied_keys,omitempty"`
	DeletedKeys  int    `json:"deleted_keys,omitempty"`
	Error        string `json:"error,omitempty"`
}

// Driver runs one migration at a time as a sequence of bounded steps, so
// a caller (the server's SPLIT goroutine, the crash campaign's round
// loop) can interleave steps with foreground work and observe progress.
type Driver struct {
	t     Target
	batch int

	mu   sync.Mutex
	st   Status
	stop bool
}

// New builds a driver over t.
func New(t Target, opts Options) *Driver {
	b := opts.BatchKeys
	if b <= 0 {
		b = 64
	}
	return &Driver{t: t, batch: b}
}

// Begin starts moving half of src's slots to dst. dst < 0 provisions a
// fresh shard via AddShard. Returns the destination shard index.
func (d *Driver) Begin(src, dst int) (int, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.st.Active {
		return 0, ErrBusy
	}
	if src < 0 || src >= d.t.NumShards() {
		return 0, fmt.Errorf("migrate: source shard %d out of range", src)
	}
	owned := d.t.OwnedSlots(src)
	if len(owned) < 2 {
		return 0, fmt.Errorf("migrate: shard %d owns %d slot(s); nothing to split", src, len(owned))
	}
	if dst < 0 {
		n, err := d.t.AddShard()
		if err != nil {
			return 0, err
		}
		dst = n
	} else if dst >= d.t.NumShards() || dst == src {
		return 0, fmt.Errorf("migrate: destination shard %d invalid", dst)
	}
	moving := owned[len(owned)/2:]
	if err := d.t.MigrationBegin(src, dst, moving); err != nil {
		return 0, err
	}
	d.st = Status{Active: true, Phase: "copy", Src: src, Dst: dst, MovingSlots: len(moving)}
	d.stop = false
	return dst, nil
}

// Step advances the migration by one bounded durable batch. It returns
// done=true when the migration has fully completed (or aborted); the
// terminal error, if any, is also recorded in Status.
func (d *Driver) Step() (bool, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if !d.st.Active {
		return true, nil
	}
	if d.stop && d.st.Phase == "copy" {
		// Stop requests honor the journal's abort arm: before the cutover
		// publish the source still owns every key, so rolling back is safe.
		err := d.t.MigrationAbort()
		d.st.Active = false
		d.st.Phase = "aborted"
		if err != nil {
			d.st.Error = err.Error()
			return true, err
		}
		d.st.Error = ErrStopped.Error()
		return true, ErrStopped
	}
	var err error
	switch d.st.Phase {
	case "copy":
		var keys, bytes int
		var done bool
		keys, bytes, done, err = d.t.MigrationCopyStep(d.batch)
		d.st.CopiedKeys += keys
		d.st.CopiedBytes += bytes
		if err == nil && done {
			d.st.Phase = "cutover"
		}
	case "cutover":
		var recopied int
		recopied, err = d.t.MigrationCutover(d.batch)
		d.st.RecopiedKeys += recopied
		if err == nil {
			d.st.Phase = "cleanup"
		}
	case "cleanup":
		var n int
		var done bool
		n, done, err = d.t.MigrationCleanupStep(d.batch)
		d.st.DeletedKeys += n
		if err == nil && done {
			d.st.Phase = "done"
			d.st.Active = false
			return true, nil
		}
	default:
		d.st.Active = false
		return true, nil
	}
	if err != nil {
		d.fail(err)
		return true, err
	}
	return false, nil
}

// fail records a terminal error, rolling back when the copy phase can
// still abort (after the cutover publish the only way out is forward, so
// cleanup errors leave the journal for recovery to finish). Caller holds
// d.mu.
func (d *Driver) fail(err error) {
	if d.st.Phase == "copy" {
		if aerr := d.t.MigrationAbort(); aerr != nil {
			err = fmt.Errorf("%w (abort: %v)", err, aerr)
		}
		d.st.Phase = "aborted"
	}
	d.st.Active = false
	d.st.Error = err.Error()
}

// Run steps the migration to completion.
func (d *Driver) Run() error {
	for {
		done, err := d.Step()
		if err != nil {
			return err
		}
		if done {
			return nil
		}
	}
}

// Split is Begin(src, fresh shard) + Run: the one-call online split.
func (d *Driver) Split(src int) (int, error) {
	dst, err := d.Begin(src, -1)
	if err != nil {
		return 0, err
	}
	return dst, d.Run()
}

// Stop requests a rollback; the next Step aborts if the cutover has not
// published yet (afterwards the migration completes forward regardless).
func (d *Driver) Stop() {
	d.mu.Lock()
	d.stop = true
	d.mu.Unlock()
}

// Status snapshots driver progress.
func (d *Driver) Status() Status {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.st
}
