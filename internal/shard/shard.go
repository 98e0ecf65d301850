// Package shard implements a hash-partitioned persistent key-value store:
// N independent shards, each running its own pmem.Device, Romulus engine
// (rom/romlog/romlr selectable) with the flat-combining batched commit path,
// and RomulusDB map, behind one Store API.
//
// Every shard comes online through one per-shard open (openShard): Reopen
// runs it for each device it is handed, AddShard and Scrub for a blank one,
// and Open hands Reopen blank devices for a fresh store. It attaches the
// device's auditor first, so formats are audited, and creates the map only
// on a just-formatted device.
//
// Keys hash to a fixed set of placement slots, and a durable placement map
// (persisted at the coordinator device's tail) assigns each slot to a shard
// — see placement.go. A fresh store's identity placement reproduces plain
// hash-mod-N routing exactly; online shard splits (internal/migrate) then
// move slots between shards without stopping reads or writes. Lookups read
// the slot table through a Left-Right construct, so routing is wait-free
// even while a migration republishes it.
//
// Single-key operations route to exactly one shard and keep the
// single-store fast path: they enter that shard's flat combiner and share
// its batched ≤4-fence durability rounds with concurrent writers of the
// same shard, while writers of different shards commit fully in parallel.
//
// Multi-key batches that span shards commit through a durable two-phase
// record on a small coordinator log device (see coord.go and
// docs/SHARDING.md): prepare (the batch's operations become durable on the
// coordinator) → per-shard applies (each a durable shard transaction that
// also advances the shard's applied-batch watermark) → done. Crash recovery
// replays prepared-but-unfinished batches shard by shard (idempotently, via
// the watermark) and rolls back records whose prepare never became durable,
// so cross-shard batches are all-or-nothing across any crash.
//
// Consistency model: each shard is durably linearizable on its own keys
// (the Romulus guarantee); a cross-shard batch is atomic with respect to
// durability and crashes, but is not isolated from concurrent readers —
// a reader racing the apply phase may observe one shard's slice before
// another's. Batch operations apply in queue order per key (a key always
// routes to one shard), so batches inherit kvstore's last-op-wins rule.
package shard

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/audit"
	"repro/internal/blackbox"
	"repro/internal/core"
	"repro/internal/kvstore"
	"repro/internal/migrate"
	"repro/internal/obs"
	"repro/internal/pmem"
	"repro/internal/ptm"
)

// appliedRoot is the root slot holding each shard's applied-batch watermark
// cell: an 8-byte persistent cell recording the highest cross-shard batch id
// the shard has durably applied. kvstore owns root 0 (the map); the cell is
// allocated lazily by the first cross-shard apply. Because the cell is
// updated in the SAME transaction as the batch's operations, "watermark ≥ id"
// is exactly "this shard durably holds batch id", which is what makes
// recovery replay idempotent.
const appliedRoot = 1

// ErrNotFound aliases kvstore.ErrNotFound for callers of Get.
var ErrNotFound = kvstore.ErrNotFound

// Options configure Open and Reopen.
type Options struct {
	// Shards is the number of partitions created fresh (default 4). Reopen
	// derives the count from the device set, and AddShard can grow it at
	// runtime; the durable placement map keeps routing consistent across
	// restarts either way.
	Shards int
	// RegionSize is the persistent heap size per twin copy per shard
	// (default 4 MiB).
	RegionSize int
	// CoordSize is the coordinator log device size (default 256 KiB, floor
	// 4× the placement record reserve). It bounds the encoded size of one
	// cross-shard batch; the placement map lives in the device's tail.
	CoordSize int
	// Variant selects the Romulus engine for every shard (default RomLog).
	Variant core.Variant
	// Model is the persistence model for freshly created devices.
	Model pmem.Model
	// Dir, when non-empty, backs the store with image files (shard-NN.img
	// plus coord.img): Open loads them if present and Close writes them
	// back. Empty keeps the store in memory (still crash-consistent within
	// the process).
	Dir string
	// InitialBuckets presizes each shard's hash map (0 = default).
	InitialBuckets int
	// Metrics, when non-nil, receives the store's observability surface:
	// shard_* routing counters, per-shard fence/batch gauges, and xshard_*
	// two-phase-commit counters (see docs/OBSERVABILITY.md). When nil the
	// store keeps a private registry so counters still work.
	Metrics *obs.Registry
	// Audit, when true, creates and attaches a durability auditor to every
	// device (each shard and the coordinator) before anything runs on it, so
	// formats are audited too; violations are counted and retrievable via
	// Auditors/ViolationCount.
	Audit bool
	// Auditors, when non-nil, supplies externally managed auditors instead
	// (crash harnesses compose them with schedulers): one per shard plus the
	// coordinator's LAST, so len(Auditors) == Shards+1. Entries may be nil.
	// Takes precedence over Audit.
	Auditors []ptm.Auditor
	// Blackbox, when true, reserves a small tail of each shard's device
	// (blackbox.DefaultSize) for a crash-surviving flight recorder: the
	// group committer records batch starts and durable points there, and
	// Reopen replays whatever survived into FlightReports before appending
	// its own recovery record. Devices created without the reserve reopen
	// fine with Blackbox on — they just have no tail, so no recorder.
	Blackbox bool
}

func (o *Options) applyDefaults() {
	if o.Shards == 0 {
		o.Shards = 4
	}
	if o.RegionSize == 0 {
		o.RegionSize = 4 << 20
	}
	if o.CoordSize == 0 {
		o.CoordSize = 256 << 10
	}
	if o.CoordSize < 4*placementReserve {
		o.CoordSize = 4 * placementReserve
	}
}

// shardPart is one partition: a device, its engine, and the RomulusDB map.
// A quarantined shard has faulted set; after a Reopen that quarantined the
// shard (recovery refused its image), eng and db are additionally nil while
// dev still holds the damaged device for forensics. mu guards the fields
// above it against the Scrub swap: operations hold it for read, Scrub for
// write. reason is guarded by mu.
type shardPart struct {
	eng    *core.Engine
	db     *kvstore.DB
	dev    *pmem.Device
	bb     *blackbox.Recorder // reserved-tail flight recorder (nil when off)
	flight *blackbox.Report   // what bb replayed at open (nil without bb)
	aud    *audit.Auditor     // store-owned auditor (Options.Audit), or nil

	mu      sync.RWMutex
	faulted atomic.Bool
	reason  string
}

// appliedID reads the shard's applied-batch watermark (0 before the first
// cross-shard apply, and 0 for a quarantined shard with no engine).
func (p *shardPart) appliedID() (uint64, error) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	if p.eng == nil {
		return 0, nil
	}
	var id uint64
	err := p.eng.Read(func(tx ptm.Tx) error {
		if c := tx.Root(appliedRoot); !c.IsNil() {
			id = tx.Load64(c)
		}
		return nil
	})
	return id, err
}

// applyPrepared applies the shard's slice of prepared batch id in ONE
// durable transaction together with the watermark advance, making the apply
// atomic and recovery-idempotent: after a crash, "watermark ≥ id" decides
// replay per shard.
func (p *shardPart) applyPrepared(id uint64, b *kvstore.Batch) error {
	p.mu.RLock()
	defer p.mu.RUnlock()
	if p.eng == nil {
		return fmt.Errorf("shard quarantined: %w", ErrShardUnavailable)
	}
	return p.eng.Update(func(tx ptm.Tx) error {
		if err := p.db.Apply(tx, b); err != nil {
			return err
		}
		cell := tx.Root(appliedRoot)
		if cell.IsNil() {
			var err error
			cell, err = tx.Alloc(8)
			if err != nil {
				return err
			}
			tx.SetRoot(appliedRoot, cell)
		}
		tx.Store64(cell, id)
		return nil
	})
}

// Store is a sharded persistent KV store.
type Store struct {
	opts Options
	// partsv holds the shard slice copy-on-write (AddShard appends by
	// publishing a longer copy), so readers index it without locks.
	partsv atomic.Pointer[[]*shardPart]
	coord  *coordinator
	reg    *obs.Registry
	// coordAud is the coordinator's store-owned auditor (Options.Audit), or
	// nil; set once at open.
	coordAud *audit.Auditor

	// Placement routing + migration state (see placement.go). migMu is the
	// migration epoch lock: writes hold it for read across their
	// route-then-commit span, migration state transitions take it for
	// write. placement and mig are guarded by it; router and numSlots are
	// set once at open.
	migMu     sync.RWMutex
	placement *migrate.Placement
	mig       *migration
	router    *router
	numSlots  int

	routeGet, routePut, routeDel *obs.Counter
	batchSingle, batchX          *obs.Counter

	faultMedia, faultRetry, faultScrub, quarantineN *obs.Counter

	placementPublish                  *obs.Counter
	migBegun, migAborts               *obs.Counter
	migCutovers                       *obs.Counter
	migCopiedKeys, migCopiedBytes     *obs.Counter
	migDirtyKeys, migCleanedKeys      *obs.Counter
	migRecoverAbort, migRecoverFinish *obs.Counter
}

// parts returns the current shard slice (never nil after open; treat as
// immutable).
func (s *Store) parts() []*shardPart { return *s.partsv.Load() }

func (s *Store) setParts(ps []*shardPart) { s.partsv.Store(&ps) }

// Open creates a store, or reloads one from Options.Dir when image files are
// present, and hands its devices to Reopen either way: a fresh store is
// Options.Shards blank shard devices plus a blank coordinator, which the
// open path formats. A fresh and a recovered store differ only in what their
// devices hold.
func Open(opts Options) (*Store, error) {
	opts.applyDefaults()
	devs, err := loadDir(opts)
	if err != nil {
		return nil, err
	}
	if devs == nil {
		for i := 0; i < opts.Shards; i++ {
			d, err := opts.blankShard()
			if err != nil {
				return nil, fmt.Errorf("shard %d: %w", i, err)
			}
			devs = append(devs, d)
		}
		devs = append(devs, pmem.New(opts.CoordSize, opts.Model))
	}
	return Reopen(devs, opts)
}

// loadDir loads a store persisted by Close into Options.Dir — the shard
// images, then the coordinator's LAST — or returns nil when Dir holds no
// coordinator image. The shard count comes from the image files present (an
// online split may have grown the store past the count it was created with).
func loadDir(opts Options) ([]*pmem.Device, error) {
	if opts.Dir == "" {
		return nil, nil
	}
	if _, err := os.Stat(coordPath(opts.Dir)); err != nil {
		return nil, nil
	}
	var devs []*pmem.Device
	for i := 0; ; i++ {
		path := shardPath(opts.Dir, i)
		if _, err := os.Stat(path); err != nil {
			break
		}
		d, err := pmem.LoadFile(path, opts.Model)
		if err != nil {
			return nil, fmt.Errorf("shard: loading shard %d: %w", i, err)
		}
		devs = append(devs, d)
	}
	if len(devs) == 0 {
		return nil, fmt.Errorf("shard: %s holds a coordinator image but no shard images", opts.Dir)
	}
	cd, err := pmem.LoadFile(coordPath(opts.Dir), opts.Model)
	if err != nil {
		return nil, fmt.Errorf("shard: loading coordinator: %w", err)
	}
	return append(devs, cd), nil
}

// Reopen attaches a store to existing devices — one per shard plus the
// coordinator device LAST (the Devices order) — running each shard's crash
// recovery, the coordinator's in-doubt batch resolution, and then the
// placement map's migration-journal resolution (see placement.go). Blank
// devices are formatted on the way (Open's fresh store). Crash harnesses
// drive this with devices built from captured images.
func Reopen(devs []*pmem.Device, opts Options) (*Store, error) {
	if len(devs) < 2 {
		return nil, fmt.Errorf("shard: Reopen needs at least one shard device plus the coordinator, got %d devices", len(devs))
	}
	exts := opts.Auditors
	switch {
	case exts == nil:
		exts = make([]ptm.Auditor, len(devs))
	case len(exts) != len(devs):
		panic(fmt.Sprintf("shard: %d auditors for %d shards+coordinator", len(exts), len(devs)-1))
	}
	opts.Shards = len(devs) - 1
	opts.applyDefaults()
	s := newStore(opts)
	parts := make([]*shardPart, 0, opts.Shards)
	for i, dev := range devs[:opts.Shards] {
		p, err := s.openShard(i, dev, exts[i])
		if err != nil {
			return nil, fmt.Errorf("shard %d: opening: %w", i, err)
		}
		parts = append(parts, p)
	}
	s.setParts(parts)
	coordDev := devs[opts.Shards]
	aud, own := s.auditorFor(coordDev, exts[opts.Shards])
	s.coordAud = own
	coord, err := openCoordinator(coordDev, s, aud)
	if err != nil {
		return nil, fmt.Errorf("shard: opening coordinator: %w", err)
	}
	s.coord = coord
	if err := s.initPlacement(); err != nil {
		return nil, err
	}
	s.wireMetrics()
	return s, nil
}

// openShard brings shard i online on dev. It is the one path every shard
// takes: Reopen's for each device it is handed, AddShard's and Scrub's for a
// blank one. The auditor attaches first, so format, recovery and the map's
// creation all run audited; core.Open formats a blank device or recovers a
// used one. kvstore.Init creates the map only on a just-formatted device, so
// a recovered shard runs no update transaction. A media-damaged image comes
// back quarantined instead of failing the open.
func (s *Store) openShard(i int, dev *pmem.Device, ext ptm.Auditor) (*shardPart, error) {
	p := &shardPart{dev: dev}
	cfg := s.opts.engineConfig()
	cfg.Audit, p.aud = s.auditorFor(dev, ext)
	eng, err := core.Open(dev, cfg)
	if err != nil {
		if !quarantinedOnOpen(err) {
			return nil, err
		}
		// Degraded open: this shard's image is torn, rotted, or unreadable.
		// Quarantine it (keys answer UNAVAIL, Scrub can readmit) instead of
		// refusing to serve the healthy shards.
		p.reason = fmt.Sprintf("recovery failed: %v", err)
		p.faulted.Store(true)
		s.quarantineN.Inc()
		return p, nil
	}
	db, fresh, err := kvstore.Init(eng, s.opts.InitialBuckets)
	if err != nil {
		return nil, err
	}
	p.eng, p.db = eng, db
	// A device without a (large enough) reserved tail — created before
	// Blackbox or with it off — simply records no flights.
	if off, size := eng.ReservedTail(); s.opts.Blackbox && size >= blackbox.MinSize {
		rec, rep, err := blackbox.Open(dev, off, size)
		if err != nil {
			return nil, fmt.Errorf("flight recorder: %w", err)
		}
		rep.Shard = i
		p.bb, p.flight = rec, rep
		if !fresh {
			// Stamp the successful recovery after replay, so the report the
			// caller reads describes the pre-crash run, not this open.
			rec.Recovery()
		}
	}
	return p, nil
}

func newStore(opts Options) *Store {
	reg := opts.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	s := &Store{
		opts:        opts,
		reg:         reg,
		routeGet:    reg.Counter("shard_route_get_total"),
		routePut:    reg.Counter("shard_route_put_total"),
		routeDel:    reg.Counter("shard_route_delete_total"),
		batchSingle: reg.Counter("shard_batch_single_total"),
		batchX:      reg.Counter("shard_batch_xshard_total"),
		faultMedia:  reg.Counter("fault_media_total"),
		faultRetry:  reg.Counter("fault_retry_total"),
		faultScrub:  reg.Counter("fault_scrub_total"),
		quarantineN: reg.Counter("shard_quarantine_total"),

		placementPublish: reg.Counter("placement_publish_total"),
		migBegun:         reg.Counter("shard_migrate_total"),
		migAborts:        reg.Counter("shard_migrate_abort_total"),
		migCutovers:      reg.Counter("shard_migrate_cutover_total"),
		migCopiedKeys:    reg.Counter("shard_migrate_copied_keys_total"),
		migCopiedBytes:   reg.Counter("shard_migrate_copied_bytes_total"),
		migDirtyKeys:     reg.Counter("shard_migrate_dirty_keys_total"),
		migCleanedKeys:   reg.Counter("shard_migrate_cleanup_keys_total"),
		migRecoverAbort:  reg.Counter("shard_migrate_recover_abort_total"),
		migRecoverFinish: reg.Counter("shard_migrate_recover_finish_total"),
	}
	s.setParts(nil)
	return s
}

// engineConfig is the core.Config every shard opens with. With Blackbox on,
// blank devices reserve the flight-recorder tail; on reopen the header
// governs the layout, so the reserve is advisory there.
func (o *Options) engineConfig() core.Config {
	cfg := core.Config{Variant: o.Variant, Model: o.Model}
	if o.Blackbox {
		cfg.ReserveTail = blackbox.DefaultSize
	}
	return cfg
}

// blankShard returns a blank shard device, sized for RegionSize and the
// engine configuration; openShard formats it.
func (o *Options) blankShard() (*pmem.Device, error) {
	return core.NewDevice(o.RegionSize, o.engineConfig())
}

// auditorFor is the one place a device's auditor is wired, before anything
// runs on the device. It returns the auditor the device's protocol markers
// go to: ext when Options.Auditors supplies them, else — under Options.Audit
// — a new auditor attached to dev, which the store owns and also returns as
// own.
func (s *Store) auditorFor(dev *pmem.Device, ext ptm.Auditor) (aud ptm.Auditor, own *audit.Auditor) {
	if s.opts.Auditors != nil || !s.opts.Audit {
		return ext, nil
	}
	own = audit.New(dev)
	own.Attach()
	return own, own
}

// wireMetrics registers the lazy per-shard gauges.
func (s *Store) wireMetrics() {
	c := s.coord
	s.reg.Collect(func(set obs.Setter) {
		set("xshard_prepare_total", c.prepares.Load())
		set("xshard_commit_total", c.commits.Load())
		set("xshard_abort_total", c.aborts.Load())
		set("xshard_replay_total", c.replays.Load())
		set("xshard_rollback_total", c.rollbacks.Load())
		cds := c.dev.Stats()
		set("coord_fence_total", cds.Pfences+cds.Psyncs)
		set("coord_pwb_total", cds.Pwbs)

		s.migMu.RLock()
		pl, migrating := s.placement, uint64(0)
		if pl.Journal.Phase != migrate.PhaseNone {
			migrating = 1
		}
		set("placement_slots", uint64(pl.NumSlots))
		set("placement_version", pl.Version)
		set("placement_shards", uint64(pl.NumShards))
		s.migMu.RUnlock()
		set("shard_migrate_active", migrating)

		shards := s.parts()
		quarantined := uint64(0)
		flights, replayed, reformatted := uint64(0), uint64(0), uint64(0)
		var recovered []ptm.RecoveryStats
		devs := make([]*pmem.Device, 0, len(shards))
		for i, p := range shards {
			pre := fmt.Sprintf("shard_%d_", i)
			faulted := uint64(0)
			if p.faulted.Load() {
				faulted, quarantined = 1, quarantined+1
			}
			set(pre+"faulted", faulted)
			p.mu.RLock()
			eng, dev, bb, rep := p.eng, p.dev, p.bb, p.flight
			p.mu.RUnlock()
			if bb != nil {
				flights += bb.Appended()
			}
			if rep != nil {
				replayed += uint64(len(rep.Records))
				if rep.Reformatted {
					reformatted++
				}
			}
			devs = append(devs, dev)
			ds := dev.Stats()
			set(pre+"fence_total", ds.Pfences+ds.Psyncs)
			set(pre+"pwb_total", ds.Pwbs)
			if eng == nil {
				continue
			}
			recovered = append(recovered, eng.RecoveryStats())
			es := eng.Stats()
			set(pre+"update_tx_total", es.UpdateTxs)
			set(pre+"read_tx_total", es.ReadTxs)
			set(pre+"batch_total", es.Batches)
			set(pre+"batch_ops_total", es.BatchOps)
		}
		obs.SetRecovery(set, recovered...)
		obs.SetDevices(set, devs...)
		set("shard_quarantined", quarantined)
		set("shard_count", uint64(len(shards)))
		if s.opts.Blackbox {
			set("blackbox_record_total", flights)
			set("blackbox_replay_records", replayed)
			set("blackbox_reformatted_total", reformatted)
		}
	})
}

// NumShards returns the partition count.
func (s *Store) NumShards() int { return len(s.parts()) }

// sidecarMark opens a sidecar key: "\x00<class>\x00<base>". The leading NUL
// cannot appear in protocol-level keys (the wire layer rejects it), so
// sidecars never collide with user data.
const sidecarMark = '\x00'

// SidecarKey builds a key that stores metadata ABOUT base (a TTL cell, a
// type tag, ...) and is guaranteed to live on base's shard: ShardFor routes
// sidecar keys by their base key. class must not contain NUL.
func SidecarKey(class string, base []byte) []byte {
	return AppendSidecarKey(make([]byte, 0, len(class)+len(base)+2), class, base)
}

// AppendSidecarKey appends SidecarKey(class, base) to dst.
func AppendSidecarKey(dst []byte, class string, base []byte) []byte {
	dst = append(dst, sidecarMark)
	dst = append(dst, class...)
	dst = append(dst, sidecarMark)
	return append(dst, base...)
}

// RoutingKey returns the key hashing routes by: the base key for sidecar
// keys (see SidecarKey), the key itself otherwise. A malformed sidecar (a
// leading NUL with no closing NUL) routes by its full bytes.
func RoutingKey(key []byte) []byte {
	if len(key) > 0 && key[0] == sidecarMark {
		if i := indexByteFrom(key, 1, sidecarMark); i >= 0 {
			return key[i+1:]
		}
	}
	return key
}

// indexByteFrom is bytes.IndexByte over key[from:], returning an absolute
// index.
func indexByteFrom(key []byte, from int, c byte) int {
	for i := from; i < len(key); i++ {
		if key[i] == c {
			return i
		}
	}
	return -1
}

// ShardFor returns the index of the shard key routes to under the current
// placement: FNV-1a of the routing key picks a placement slot, the slot
// table names the shard. A fresh store's identity placement makes this
// exactly the classic hash-mod-N. Sidecar keys route with their base key,
// so a key and its metadata always commit in the same shard's transactions
// — and always migrate together (they share a slot).
//
// During a migration the answer can change between calls; operations that
// act on the result must either hold a WriteHandle (mutations) or use the
// routed read path (Get/ViewKey), both of which pin the route across the
// shard access.
func (s *Store) ShardFor(key []byte) int {
	return s.router.lookup(s.slotOf(key))
}

// Registry returns the store's metrics registry (Options.Metrics, or the
// private one created when none was given).
func (s *Store) Registry() *obs.Registry { return s.reg }

// Devices returns every device of the store: one per shard, then the
// coordinator log LAST. The order matches Reopen's expectation, so a crash
// harness can capture all images and reopen from them.
func (s *Store) Devices() []*pmem.Device {
	parts := s.parts()
	out := make([]*pmem.Device, 0, len(parts)+1)
	for _, p := range parts {
		p.mu.RLock()
		out = append(out, p.dev)
		p.mu.RUnlock()
	}
	return append(out, s.coord.dev)
}

// Engine exposes shard i's engine (statistics, crash testing).
func (s *Store) Engine(i int) *core.Engine { return s.parts()[i].eng }

// SetAuditors installs externally managed auditors — one per shard plus the
// coordinator's last, nil entries allowed — on the engines and coordinator.
// Call only at a quiescent point.
func (s *Store) SetAuditors(auds []ptm.Auditor) {
	parts := s.parts()
	if len(auds) != len(parts)+1 {
		panic(fmt.Sprintf("shard: SetAuditors got %d auditors for %d shards+coordinator", len(auds), len(parts)))
	}
	for i, p := range parts {
		if p.eng != nil {
			p.eng.SetAuditor(auds[i])
		}
	}
	s.coord.aud = auds[len(auds)-1]
}

// Auditors returns the store-created auditors (Options.Audit), one per
// shard plus the coordinator's last; entries are nil when auditing is off
// or externally managed.
func (s *Store) Auditors() []*audit.Auditor {
	parts := s.parts()
	out := make([]*audit.Auditor, 0, len(parts)+1)
	for _, p := range parts {
		p.mu.RLock()
		out = append(out, p.aud)
		p.mu.RUnlock()
	}
	return append(out, s.coordAud)
}

// FlightReports returns the per-shard flight-recorder reports replayed at
// the last Open/Reopen. Entries are nil when Blackbox is off, the device
// has no reserved tail, or the shard was quarantined at open. The reports
// describe the run *before* this open — forensics, not live state.
func (s *Store) FlightReports() []*blackbox.Report {
	parts := s.parts()
	out := make([]*blackbox.Report, 0, len(parts))
	for _, p := range parts {
		p.mu.RLock()
		out = append(out, p.flight)
		p.mu.RUnlock()
	}
	return out
}

// HasFlightRecorder reports whether any shard is recording flights; the
// group committer checks once instead of per batch.
func (s *Store) HasFlightRecorder() bool {
	for _, p := range s.parts() {
		if p.bb != nil {
			return true
		}
	}
	return false
}

// RecordFlight durably appends one record to shard i's flight recorder (a
// no-op when the shard has none, or is quarantined). Seq and TsNs are
// recorder-assigned. pmem.Device's data path is single-writer, so the append
// runs under the shard engine's writer lock (core.Engine.WriteTail), the one
// lock every writer of the device takes: group commits, cross-shard applies
// and migration steps alike.
func (s *Store) RecordFlight(i int, rec blackbox.Record) {
	parts := s.parts()
	if i < 0 || i >= len(parts) {
		return
	}
	p := parts[i]
	p.mu.RLock()
	defer p.mu.RUnlock()
	if p.bb == nil || p.faulted.Load() {
		return
	}
	p.eng.WriteTail(func() { p.bb.Append(rec) })
}

// ViolationCount sums durability violations across the store-created
// auditors.
func (s *Store) ViolationCount() uint64 {
	var n uint64
	for _, a := range s.Auditors() {
		if a != nil {
			n += a.ViolationCount()
		}
	}
	return n
}

// Get returns the value for key, ErrNotFound, or — for a quarantined shard
// — the typed *UnavailError. The lookup holds the routing construct's read
// indicator across the shard access, so a concurrent migration cutover can
// never retire the shard's copy of the key mid-read (see placement.go).
func (s *Store) Get(key []byte) ([]byte, error) {
	s.routeGet.Inc()
	var out []byte
	err := s.routedRead(key, func(p *shardPart) error {
		v, err := p.db.Get(key)
		out = v
		return err
	})
	return out, err
}

// Put durably stores the pair on key's shard.
func (s *Store) Put(key, val []byte) error {
	s.routePut.Inc()
	h := s.BeginWrite(key)
	defer h.Done()
	return s.onShard(h.Route(key), func(p *shardPart) error {
		return p.db.Put(key, val)
	})
}

// Delete durably removes key from its shard (a no-op if absent).
func (s *Store) Delete(key []byte) error {
	s.routeDel.Inc()
	h := s.BeginWrite(key)
	defer h.Done()
	return s.onShard(h.Route(key), func(p *shardPart) error {
		return p.db.Delete(key)
	})
}

// Update runs fn as ONE durable transaction on shard i, handing it the
// shard's transaction handle and RomulusDB map, and returns after the
// round's replication. Keys touched inside fn MUST route to shard i (tx/db
// belong to that shard alone); use ShardFor, and SidecarKey for metadata
// keys. Callers that can race a migration must bracket the route + Update
// with a WriteHandle; migration internals call Update directly. Quarantine
// and transient-fault retry semantics match the single-key operations.
func (s *Store) Update(i int, fn func(tx ptm.Tx, db *kvstore.DB) error) error {
	return s.onShard(i, func(p *shardPart) error {
		var errs [1]error
		p.eng.UpdateEach(func(tx ptm.Tx, _ int) error { return fn(tx, p.db) }, errs[:])
		return errs[0]
	})
}

// errDeferred marks an operation of an UpdateEach that did not run because
// an earlier one faulted: it reruns behind that one.
var errDeferred = errors.New("shard: deferred behind a media fault")

// UpdateEach runs each(tx, db, j) for every j < len(errs) on shard i as one
// request of its engine's combiner — one durability round, or each alone
// after a failure — and returns after the round's replication; errs[j]
// receives operation j's error. The routing rule of Update applies. An
// operation that fails with a media fault reruns through Update, so it is
// retried, and quarantines the shard, like a single-key operation; the
// operations behind it run only after it, so each key's operations still
// apply in order. The returned error is the shard's unavailability.
func (s *Store) UpdateEach(i int, each func(tx ptm.Tx, db *kvstore.DB, j int) error, errs []error) error {
	faulted := func(err error) bool { return err == errDeferred || errors.Is(err, pmem.ErrMediaFault) }
	err := s.onShard(i, func(p *shardPart) error {
		p.eng.UpdateEach(func(tx ptm.Tx, j int) error {
			if j > 0 && faulted(errs[j-1]) { // errs[j-1] is this attempt's
				return errDeferred
			}
			return each(tx, p.db, j)
		}, errs)
		return nil
	})
	for j := slices.IndexFunc(errs, faulted); err == nil && j >= 0 && j < len(errs); j++ {
		k := j // the closure's own copy, so j stays off the heap
		errs[k] = s.Update(i, func(tx ptm.Tx, db *kvstore.DB) error { return each(tx, db, k) })
	}
	return err
}

// View runs fn as one read-only transaction on shard i (a consistent
// snapshot of that shard). The same key-routing rule as Update applies;
// for single-key reads that must stay consistent under migration, use
// ViewKey instead.
func (s *Store) View(i int, fn func(tx ptm.Tx, db *kvstore.DB) error) error {
	return s.onShard(i, func(p *shardPart) error {
		return p.eng.Read(func(tx ptm.Tx) error { return fn(tx, p.db) })
	})
}

// Len returns the number of live pairs across the healthy shards (a
// quarantined shard's pairs are unreadable and excluded). Shards are read
// one at a time (no cross-shard snapshot), so a concurrent cross-shard
// batch may be half-counted; quiesce writers for an exact count. During a
// migration's copy/cleanup phases, moved keys can be double-counted (they
// exist on both shards until cleanup finishes); quiesce the migration too
// for an exact count.
func (s *Store) Len() int {
	n := 0
	for _, p := range s.parts() {
		p.mu.RLock()
		if p.eng != nil && !p.faulted.Load() {
			n += p.db.Len()
		}
		p.mu.RUnlock()
	}
	return n
}

// Write applies the batch atomically and durably. Batches touching one
// shard commit on that shard's fast path (one flat-combined durable
// transaction); batches spanning shards commit through the coordinator's
// durable two-phase record and are all-or-nothing across any crash. The
// whole batch runs under one WriteHandle, so a migration cannot re-route
// any of its keys between grouping and commit.
func (s *Store) Write(b *kvstore.Batch) error {
	if b.Len() == 0 {
		return nil
	}
	keys := make([][]byte, 0, b.Len())
	b.Each(func(del bool, key, val []byte) { keys = append(keys, key) })
	h := s.BeginWrite(keys...)
	defer h.Done()
	groups := make([]*kvstore.Batch, len(s.parts()))
	var involved []int
	b.Each(func(del bool, key, val []byte) {
		i := h.Route(key)
		if groups[i] == nil {
			groups[i] = &kvstore.Batch{}
			involved = append(involved, i)
		}
		if del {
			groups[i].Delete(key)
		} else {
			groups[i].Put(key, val)
		}
	})
	if len(involved) == 1 {
		s.batchSingle.Inc()
		return s.onShard(involved[0], func(p *shardPart) error {
			return p.db.Write(groups[involved[0]])
		})
	}
	s.batchX.Inc()
	return s.coord.commit(s, groups)
}

// ShardStats is one shard's row of Stats.
type ShardStats struct {
	Pairs     int    `json:"pairs"`
	UpdateTxs uint64 `json:"update_txs"`
	ReadTxs   uint64 `json:"read_txs"`
	Batches   uint64 `json:"batches"`
	Fences    uint64 `json:"fences"`
	// Faulted marks a quarantined shard; Reason carries its recorded cause.
	Faulted bool   `json:"faulted,omitempty"`
	Reason  string `json:"reason,omitempty"`
}

// Stats is a store-level snapshot.
type Stats struct {
	Shards    int          `json:"shards"`
	Pairs     int          `json:"pairs"`
	PerShard  []ShardStats `json:"per_shard"`
	XPrepares uint64       `json:"xshard_prepares"`
	XCommits  uint64       `json:"xshard_commits"`
	XAborts   uint64       `json:"xshard_aborts"`
	XReplays  uint64       `json:"xshard_replays"`
	XRollback uint64       `json:"xshard_rollbacks"`
}

// Stats returns a snapshot of store statistics.
func (s *Store) Stats() Stats {
	parts := s.parts()
	st := Stats{
		Shards:    len(parts),
		XPrepares: s.coord.prepares.Load(),
		XCommits:  s.coord.commits.Load(),
		XAborts:   s.coord.aborts.Load(),
		XReplays:  s.coord.replays.Load(),
		XRollback: s.coord.rollbacks.Load(),
	}
	for _, p := range parts {
		p.mu.RLock()
		row := ShardStats{
			Faulted: p.faulted.Load(),
			Reason:  p.reason,
			Fences:  p.dev.Stats().Pfences + p.dev.Stats().Psyncs,
		}
		if p.eng != nil && !row.Faulted {
			es := p.eng.Stats()
			row.Pairs = p.db.Len()
			row.UpdateTxs = es.UpdateTxs
			row.ReadTxs = es.ReadTxs
			row.Batches = es.Batches
		}
		p.mu.RUnlock()
		st.Pairs += row.Pairs
		st.PerShard = append(st.PerShard, row)
	}
	return st
}

// Close shuts every shard engine and the coordinator down, first writing
// image files back to Options.Dir when configured. The store must be
// quiescent.
func (s *Store) Close() error {
	parts := s.parts()
	if s.opts.Dir != "" {
		if err := os.MkdirAll(s.opts.Dir, 0o755); err != nil {
			return fmt.Errorf("shard: %w", err)
		}
		for i, p := range parts {
			if err := p.dev.SaveFile(shardPath(s.opts.Dir, i)); err != nil {
				return err
			}
		}
		if err := s.coord.dev.SaveFile(coordPath(s.opts.Dir)); err != nil {
			return err
		}
	}
	var first error
	for _, p := range parts {
		if p.eng == nil {
			continue
		}
		if err := p.eng.Close(); err != nil && first == nil {
			first = err
		}
	}
	s.coord.close()
	return first
}

func shardPath(dir string, i int) string {
	return filepath.Join(dir, fmt.Sprintf("shard-%02d.img", i))
}

func coordPath(dir string) string { return filepath.Join(dir, "coord.img") }
