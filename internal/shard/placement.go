// Elastic sharding: placement-map routing and online shard migration.
//
// Routing no longer hashes keys straight to a shard index. Keys hash to a
// fixed set of placement SLOTS (migrate.Placement, persisted at the tail
// of the coordinator device), and each slot names its owning shard. The
// slot table is read through a Left-Right construct (the paper's §5.3
// technique, internal/leftright), so lookups — and the reads they serve —
// are wait-free even while a migration's cutover republishes the table.
//
// # The write protocol
//
// Every mutating operation brackets its route-then-commit span in a
// WriteHandle (BeginWrite..Done), which holds the migration epoch lock
// (Store.migMu) for read. Migration state transitions — begin, cutover,
// abort, shard add — take the same lock for write, which gives them the
// quiescence they need: when MigrationBegin returns, every in-flight
// write predates the migration; when the cutover holds the lock, no write
// is mid-commit. During the copy phase, writes proceed normally and mark
// any key they touch in a moving slot DIRTY (over-marking is harmless —
// the cutover just re-reads the source); at cutover, writes touching
// moving slots park on a gate channel (bounded by the cutover's bounded
// dirty-set recopy) while all other writes keep flowing.
//
// # Copy-then-cutover, and why recovery is exact
//
//	begin:   journal PhaseCopy (durable). Routing unchanged.
//	copy:    snapshot the moving keys, copy them to dst in bounded durable
//	         batches. Concurrent writes dirty-mark.
//	cutover: fence moving-slot writes, drain + recopy the dirty set, then
//	         publish ONE record that both flips slot ownership to dst and
//	         sets PhaseCleanup — the migration's atomic commit point —
//	         and toggle the Left-Right router.
//	cleanup: delete the moved keys from src in bounded batches; publish
//	         PhaseNone.
//
// A crash in copy recovers by rolling BACK (wipe dst's partial copies —
// routing never pointed there, so only migration copies can exist —
// journal PhaseNone): src owns every key. A crash in cleanup recovers by
// rolling FORWARD (delete src's leftovers of the moved slots): dst owns
// every key, because the flip record already routed them there. Since the
// flip is a single atomic record publish, no crash point can leave a key
// with zero or two owners.
package shard

import (
	"errors"
	"fmt"
	"hash/fnv"
	"sort"
	"sync"

	"repro/internal/kvstore"
	"repro/internal/leftright"
	"repro/internal/migrate"
	"repro/internal/obs"
	"repro/internal/ptm"
)

// placementReserve is the coordinator-tail area reserved for the durable
// placement record (coord.go's payload capacity check subtracts it).
const placementReserve = migrate.RecordSize

// errNoMigration is returned by migration steps called with no migration
// in flight.
var errNoMigration = errors.New("shard: no migration in progress")

// router is the wait-free slot->shard lookup: two slot tables behind a
// Left-Right instance pointer. Readers arrive on the construct's read
// indicator, read the published table, and depart; the (single) publisher
// rewrites the unpublished table and toggles.
type router struct {
	tabs   [2][]int32
	lr     leftright.LR
	active leftright.Instance // publisher-side only
}

func newRouter(p *migrate.Placement) *router {
	r := &router{}
	for inst := 0; inst < 2; inst++ {
		t := make([]int32, p.NumSlots)
		for i, sh := range p.Slots {
			t[i] = int32(sh)
		}
		r.tabs[inst] = t
	}
	return r
}

func (r *router) route(slot int) int {
	return int(r.tabs[r.lr.Read()][slot])
}

// lookup is the one-shot route for callers that do not span a shard
// access (write routing holds migMu instead, which excludes publishes).
func (r *router) lookup(slot int) int {
	rd := r.lr.Arrive()
	sh := r.route(slot)
	r.lr.Depart(rd)
	return sh
}

// publish installs a new slot table. Caller must hold the store's migMu
// write lock (single publisher; also excludes WriteHandle routing). After
// Toggle returns, no reader can still observe the old table, so readers
// routed to a migration's source shard have all departed before its
// cleanup deletes anything — the wait-free read guarantee.
func (r *router) publish(slots []int) {
	next := 1 - r.active
	for i, sh := range slots {
		r.tabs[next][i] = int32(sh)
	}
	r.lr.Toggle(next)
	r.active = next
	// The old table is reader-free now; sync it so the next publish only
	// has to toggle.
	for i, sh := range slots {
		r.tabs[1-next][i] = int32(sh)
	}
}

// slotOf maps a key to its placement slot (FNV-1a of the routing key,
// like the pre-placement shard hash; sidecar keys route by their base).
func (s *Store) slotOf(key []byte) int {
	h := fnv.New64a()
	h.Write(RoutingKey(key))
	return int(h.Sum64() % uint64(s.numSlots))
}

// migration is the in-flight copy-phase state (nil on Store when idle).
type migration struct {
	id       uint64
	src, dst int
	moving   []bool // by slot

	// fenced is guarded by Store.migMu (set under the write lock, read
	// under the read lock): when true, writes touching moving slots park
	// on gate until the cutover resolves.
	fenced bool

	mu    sync.Mutex
	dirty map[string]bool // moving keys written during copy; drained at cutover
	gate  chan struct{}   // non-nil while fenced; closed to release parked writers

	// Copy cursor, touched only by the driver's (serialized) steps.
	snapshotted bool
	copyKeys    [][]byte
	copyPos     int
}

// WriteHandle brackets one mutating operation's route-then-commit span.
// While held, slot ownership cannot change (Route is stable), and on Done
// any keys in moving slots are recorded for the cutover's recopy.
type WriteHandle struct {
	s      *Store
	m      *migration
	moving [][]byte
}

// BeginWrite opens a write span covering keys. It blocks only when a
// cutover has fenced a key's slot (a bounded window); otherwise it is one
// read-lock acquisition. Every path that mutates shard data through the
// store (Put, Delete, Write, the network layer's group commits) must
// bracket itself with BeginWrite..Done and route with Route.
func (s *Store) BeginWrite(keys ...[]byte) *WriteHandle {
	for {
		s.migMu.RLock()
		m := s.mig
		if m == nil {
			return &WriteHandle{s: s}
		}
		var moving [][]byte
		for _, k := range keys {
			if m.moving[s.slotOf(k)] {
				moving = append(moving, k)
			}
		}
		if len(moving) == 0 || !m.fenced {
			return &WriteHandle{s: s, m: m, moving: moving}
		}
		// Fenced: the cutover is recopying this slot's dirty keys. Park
		// until it publishes (or unwinds), then re-evaluate.
		m.mu.Lock()
		gate := m.gate
		m.mu.Unlock()
		s.migMu.RUnlock()
		if gate != nil {
			<-gate
		}
	}
}

// Route returns the shard key routes to, stable while the handle is held.
func (h *WriteHandle) Route(key []byte) int { return h.s.ShardFor(key) }

// Done closes the span: moving keys the operation touched are marked
// dirty (whether or not the commit succeeded — over-marking only costs a
// recopy read), and the epoch lock is released.
func (h *WriteHandle) Done() {
	if h.m != nil && len(h.moving) > 0 {
		h.m.mu.Lock()
		for _, k := range h.moving {
			h.m.dirty[string(k)] = true
		}
		h.m.mu.Unlock()
		h.s.migDirtyKeys.Add(uint64(len(h.moving)))
	}
	h.s.migMu.RUnlock()
}

// routedRead runs op against the shard key routes to, holding the
// router's read indicator across the shard access: a concurrent cutover's
// Toggle waits for us, so the source shard's copy cannot be cleaned up
// under a read that routed to it. Wait-free with respect to migration —
// reads never take migMu and never park on the cutover gate.
func (s *Store) routedRead(key []byte, op func(p *shardPart) error) error {
	rd := s.router.lr.Arrive()
	err := s.onShard(s.router.route(s.slotOf(key)), op)
	s.router.lr.Depart(rd)
	return err
}

// ViewKey runs fn as one read-only transaction on the shard key routes
// to, with the same migration-safe routing as Get (the router's read
// indicator is held across the transaction). The network layer's GET/TTL
// paths use this instead of ShardFor+View so a cutover can never retire a
// shard's copy of the key mid-read.
func (s *Store) ViewKey(key []byte, fn func(tx ptm.Tx, db *kvstore.DB) error) error {
	return s.routedRead(key, func(p *shardPart) error {
		return p.eng.Read(func(tx ptm.Tx) error { return fn(tx, p.db) })
	})
}

// placementArea returns the reserved record area at the coordinator tail.
func (c *coordinator) placementArea() (base, size int) {
	return c.dev.Size() - placementReserve, placementReserve
}

// writePlacement durably publishes a placement record inside an audited
// span (the caller holds c.mu). WriteRecord's double-slot protocol makes
// the publish atomic: a torn write leaves the previous record decodable.
func (c *coordinator) writePlacement(p *migrate.Placement, point string) error {
	if a := c.aud; a != nil {
		a.TxBegin("xshard-coord", point)
		defer a.TxEnd()
	}
	base, size := c.placementArea()
	if err := migrate.WriteRecord(c.dev, base, size, p); err != nil {
		return err
	}
	if a := c.aud; a != nil {
		a.DurablePoint(point)
	}
	return nil
}

// publishPlacement serializes a routine placement publish against
// cross-shard commits.
func (c *coordinator) publishPlacement(p *migrate.Placement) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.writePlacement(p, "placement-publish")
}

// cutoverPublish publishes the migration's ownership flip. It refuses
// while the coordinator is wedged or a cross-shard batch sits prepared:
// that batch's payload routes ops by shard indices baked at its prepare,
// so flipping ownership before its replay retires would hand a key two
// owners' worth of history.
func (c *coordinator) cutoverPublish(p *migrate.Placement) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.wedged != nil {
		return fmt.Errorf("shard: cutover refused, coordinator wedged: %w", c.wedged)
	}
	if c.dev.Load64(cOffState)&cTagMask == cTagPrepared {
		return errors.New("shard: cutover refused while a cross-shard batch is in doubt")
	}
	return c.writePlacement(p, "placement-cutover")
}

// initPlacement loads (or synthesizes) the durable placement after the
// shards and coordinator have opened, builds the router, and resolves any
// in-flight migration journal. Stores created before placement existed
// adopt the identity map — byte-for-byte the old hash%N routing.
func (s *Store) initPlacement() error {
	base, size := s.coord.placementArea()
	pl := migrate.ReadRecord(s.coord.dev, base, size)
	n := len(s.parts())
	if pl == nil {
		pl = migrate.Identity(n, migrate.DefaultSlotsPerShard)
		if err := s.publishPlacement(pl); err != nil {
			return fmt.Errorf("shard: publishing initial placement: %w", err)
		}
	}
	switch {
	case pl.NumShards > n:
		return fmt.Errorf("shard: placement names %d shards but the store has %d shard devices", pl.NumShards, n)
	case pl.NumShards < n:
		// Devices beyond the placement's count: an AddShard whose record
		// publish never persisted. The extra shards own no slots; adopt
		// them so the counts agree.
		extra := n - pl.NumShards
		pl = pl.Clone()
		pl.NumShards = n
		if err := s.publishPlacement(pl); err != nil {
			return fmt.Errorf("shard: adopting %d unplaced shard(s): %w", extra, err)
		}
	}
	s.numSlots = pl.NumSlots
	s.placement = pl
	s.router = newRouter(pl)
	return s.resolveJournal()
}

// publishPlacement durably writes the record (coordinator-serialized) and
// counts the publish.
func (s *Store) publishPlacement(p *migrate.Placement) error {
	if err := s.coord.publishPlacement(p); err != nil {
		return err
	}
	s.placementPublish.Inc()
	return nil
}

// resolveJournal settles the migration journal at open: PhaseCopy rolls
// back (wipe dst's partial copies), PhaseCleanup rolls forward (purge
// src's moved keys). Both arms are idempotent — a crash during recovery
// itself just re-runs the same arm. When the shard the arm must write to
// is quarantined, the journal is left in place: routing is already
// correct either way (the flip record decides ownership), the unreachable
// leftovers sit on a shard that serves nothing, and a later Scrub+reopen
// re-resolves against the (then empty) partition.
func (s *Store) resolveJournal() error {
	pl := s.placement
	var purgeShard int
	var counter *obs.Counter
	switch pl.Journal.Phase {
	case migrate.PhaseNone:
		return nil
	case migrate.PhaseCopy:
		purgeShard, counter = pl.Journal.Dst, s.migRecoverAbort
	case migrate.PhaseCleanup:
		purgeShard, counter = pl.Journal.Src, s.migRecoverFinish
	}
	set := pl.Journal.MovingSet(s.numSlots)
	if err := s.purgeMoving(purgeShard, set); err != nil {
		if errors.Is(err, ErrShardUnavailable) {
			return nil
		}
		return fmt.Errorf("shard: resolving %v migration journal: %w", pl.Journal.Phase, err)
	}
	pl2 := pl.Clone()
	pl2.Journal = migrate.Journal{}
	if err := s.publishPlacement(pl2); err != nil {
		return err
	}
	s.placement = pl2
	counter.Inc()
	return nil
}

// purgeMoving deletes every key of shard whose slot is in set, in bounded
// durable batches.
func (s *Store) purgeMoving(shard int, set []bool) error {
	for {
		keys, err := s.collectMoving(shard, set, 128)
		if err != nil {
			return err
		}
		if len(keys) == 0 {
			return nil
		}
		if err := s.deleteKeys(shard, keys); err != nil {
			return err
		}
	}
}

// collectMoving scans shard for up to max keys whose slot is in set
// (copies — the scan's slices die with its transaction).
func (s *Store) collectMoving(shard int, set []bool, max int) ([][]byte, error) {
	var keys [][]byte
	err := s.View(shard, func(tx ptm.Tx, db *kvstore.DB) error {
		keys = keys[:0] // the engine may retry fn; rebuild
		return db.RangeTx(tx, false, func(k, v []byte) bool {
			if set[s.slotOf(k)] {
				keys = append(keys, append([]byte(nil), k...))
			}
			return len(keys) < max
		})
	})
	return keys, err
}

// deleteKeys removes keys from shard in one durable transaction.
func (s *Store) deleteKeys(shard int, keys [][]byte) error {
	return s.Update(shard, func(tx ptm.Tx, db *kvstore.DB) error {
		for _, k := range keys {
			if err := db.DeleteTx(tx, k); err != nil {
				return err
			}
		}
		return nil
	})
}

// AddShard brings a fresh empty shard online on a blank device, through
// the same per-shard open as every other shard (openShard), registered in
// the placement (owning no slots — a migration moves slots to it). Refused
// while a migration is journaled, so the device set a crash must recover is
// stable throughout a migration.
func (s *Store) AddShard() (int, error) {
	s.migMu.Lock()
	defer s.migMu.Unlock()
	if s.mig != nil || s.placement.Journal.Phase != migrate.PhaseNone {
		return 0, errors.New("shard: cannot add a shard during a migration")
	}
	i := len(s.parts())
	dev, err := s.opts.blankShard()
	if err != nil {
		return 0, fmt.Errorf("shard: adding shard: %w", err)
	}
	p, err := s.openShard(i, dev, nil)
	if err != nil {
		return 0, fmt.Errorf("shard: adding shard %d: %w", i, err)
	}
	pl2 := s.placement.Clone()
	pl2.NumShards = i + 1
	if err := s.publishPlacement(pl2); err != nil {
		return 0, err
	}
	s.placement = pl2
	s.setParts(append(append([]*shardPart(nil), s.parts()...), p))
	return i, nil
}

// OwnedSlots lists the slots shard owns under the current placement.
func (s *Store) OwnedSlots(shard int) []int {
	s.migMu.RLock()
	defer s.migMu.RUnlock()
	return s.placement.OwnedBy(shard)
}

// MigrationBegin journals PhaseCopy for slots moving src -> dst and
// activates the write protocol's dirty tracking. Taking the epoch lock
// for write means every write in flight before the journal publish has
// committed when this returns — the copy snapshot misses none of them.
func (s *Store) MigrationBegin(src, dst int, slots []int) error {
	s.migMu.Lock()
	defer s.migMu.Unlock()
	n := len(s.parts())
	if src < 0 || src >= n || dst < 0 || dst >= n || src == dst {
		return fmt.Errorf("shard: migration src=%d dst=%d invalid for %d shards", src, dst, n)
	}
	if s.mig != nil || s.placement.Journal.Phase != migrate.PhaseNone {
		return errors.New("shard: migration already in progress")
	}
	if len(slots) == 0 {
		return errors.New("shard: migration moves no slots")
	}
	ps := s.parts()
	if ps[src].faulted.Load() {
		return s.unavail(src)
	}
	if ps[dst].faulted.Load() {
		return s.unavail(dst)
	}
	moving := make([]bool, s.numSlots)
	for _, sl := range slots {
		if sl < 0 || sl >= s.numSlots {
			return fmt.Errorf("shard: migration slot %d out of range", sl)
		}
		if s.placement.Slots[sl] != src {
			return fmt.Errorf("shard: slot %d is owned by shard %d, not source %d", sl, s.placement.Slots[sl], src)
		}
		moving[sl] = true
	}
	sorted := append([]int(nil), slots...)
	sort.Ints(sorted)
	pl2 := s.placement.Clone()
	pl2.Journal = migrate.Journal{
		Phase: migrate.PhaseCopy,
		ID:    pl2.Version + 1,
		Src:   src,
		Dst:   dst,
		Slots: sorted,
	}
	if err := s.publishPlacement(pl2); err != nil {
		return err
	}
	s.placement = pl2
	s.mig = &migration{
		id:     pl2.Journal.ID,
		src:    src,
		dst:    dst,
		moving: moving,
		dirty:  make(map[string]bool),
	}
	s.migBegun.Inc()
	return nil
}

type kvPair struct{ k, v []byte }

// MigrationCopyStep copies up to maxKeys moving keys from src to dst in
// one durable destination transaction. The first step snapshots the
// moving key set; keys written after the snapshot are dirty-tracked by
// the write protocol and re-copied at cutover, so the copy pass never
// needs to rescan. Runs concurrently with foreground writes (it holds no
// locks across the engine work).
func (s *Store) MigrationCopyStep(maxKeys int) (keys, bytes int, done bool, err error) {
	if maxKeys <= 0 {
		maxKeys = 64
	}
	s.migMu.RLock()
	m := s.mig
	s.migMu.RUnlock()
	if m == nil {
		return 0, 0, false, errNoMigration
	}
	if !m.snapshotted {
		var snap [][]byte
		err := s.View(m.src, func(tx ptm.Tx, db *kvstore.DB) error {
			snap = snap[:0] // the engine may retry fn; rebuild
			return db.RangeTx(tx, false, func(k, v []byte) bool {
				if m.moving[s.slotOf(k)] {
					snap = append(snap, append([]byte(nil), k...))
				}
				return true
			})
		})
		if err != nil {
			return 0, 0, false, err
		}
		m.copyKeys, m.snapshotted = snap, true
	}
	if m.copyPos >= len(m.copyKeys) {
		return 0, 0, true, nil
	}
	end := m.copyPos + maxKeys
	if end > len(m.copyKeys) {
		end = len(m.copyKeys)
	}
	batch := m.copyKeys[m.copyPos:end]
	var puts []kvPair
	err = s.View(m.src, func(tx ptm.Tx, db *kvstore.DB) error {
		puts, bytes = puts[:0], 0 // the engine may retry fn; rebuild
		for _, k := range batch {
			v, err := db.GetTx(tx, k)
			if errors.Is(err, kvstore.ErrNotFound) {
				continue // deleted since the snapshot; the dirty set has it
			}
			if err != nil {
				return err
			}
			puts = append(puts, kvPair{k, v})
			bytes += len(k) + len(v)
		}
		return nil
	})
	if err != nil {
		return 0, 0, false, err
	}
	if len(puts) > 0 {
		if err := s.Update(m.dst, func(tx ptm.Tx, db *kvstore.DB) error {
			for _, p := range puts {
				if err := db.PutTx(tx, p.k, p.v); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			return 0, 0, false, err
		}
	}
	m.copyPos = end
	s.migCopiedKeys.Add(uint64(len(batch)))
	s.migCopiedBytes.Add(uint64(bytes))
	return len(batch), bytes, m.copyPos >= len(m.copyKeys), nil
}

// recopyDirty drains the migration's dirty set, re-reading each key from
// src and applying the result (put or delete) to dst in batches of
// maxKeys, one durable transaction each. Keys are taken in sorted order:
// map order would let the Go runtime pick each batch's membership and the
// put order into dst, and a seeded crash campaign could not replay.
func (s *Store) recopyDirty(m *migration, maxKeys int) (int, error) {
	total := 0
	for {
		m.mu.Lock()
		keys := make([]string, 0, len(m.dirty))
		for k := range m.dirty {
			keys = append(keys, k)
		}
		m.mu.Unlock()
		if len(keys) == 0 {
			return total, nil
		}
		sort.Strings(keys)
		for len(keys) > 0 {
			batch := keys[:min(maxKeys, len(keys))]
			keys = keys[len(batch):]
			// A key leaves the set only with the batch that recopies it; one
			// marked again meanwhile is back in the set for the next pass.
			m.mu.Lock()
			for _, k := range batch {
				delete(m.dirty, k)
			}
			m.mu.Unlock()
			if err := s.recopyBatch(m, batch); err != nil {
				return total, err
			}
			total += len(batch)
		}
	}
}

// recopyBatch re-reads batch from src and applies it to dst in one durable
// transaction.
func (s *Store) recopyBatch(m *migration, batch []string) error {
	var puts []kvPair
	var dels [][]byte
	err := s.View(m.src, func(tx ptm.Tx, db *kvstore.DB) error {
		puts, dels = puts[:0], dels[:0] // View may retry fn; rebuild
		for _, key := range batch {
			k := []byte(key)
			v, err := db.GetTx(tx, k)
			if errors.Is(err, kvstore.ErrNotFound) {
				dels = append(dels, k)
				continue
			}
			if err != nil {
				return err
			}
			puts = append(puts, kvPair{k, v})
		}
		return nil
	})
	if err != nil {
		return err
	}
	return s.Update(m.dst, func(tx ptm.Tx, db *kvstore.DB) error {
		for _, p := range puts {
			if err := db.PutTx(tx, p.k, p.v); err != nil {
				return err
			}
		}
		for _, k := range dels {
			if err := db.DeleteTx(tx, k); err != nil {
				return err
			}
		}
		return nil
	})
}

// MigrationCutover is the commit point: fence writes to the moving slots,
// recopy the dirty set (first concurrently, then once more under the
// write lock to catch marks from writes that were mid-flight), publish
// the record that flips ownership AND journals PhaseCleanup in one
// durable write, and toggle the router. On any failure the fence lifts
// and writes resume against src — the caller (driver) aborts the copy.
func (s *Store) MigrationCutover(maxKeys int) (int, error) {
	if maxKeys <= 0 {
		maxKeys = 64
	}
	s.migMu.Lock()
	m := s.mig
	if m == nil {
		s.migMu.Unlock()
		return 0, errNoMigration
	}
	m.fenced = true
	m.mu.Lock()
	m.gate = make(chan struct{})
	m.mu.Unlock()
	s.migMu.Unlock()

	recopied, err := s.recopyDirty(m, maxKeys)

	s.migMu.Lock()
	if err == nil {
		// Final drain: every pre-fence write has released the epoch lock,
		// so its dirty marks are visible and no new ones can appear.
		var n int
		n, err = s.recopyDirty(m, maxKeys)
		recopied += n
	}
	if err == nil {
		pl2 := s.placement.Clone()
		for _, sl := range pl2.Journal.Slots {
			pl2.Slots[sl] = m.dst
		}
		pl2.Journal.Phase = migrate.PhaseCleanup
		if perr := s.coord.cutoverPublish(pl2); perr != nil {
			err = perr
		} else {
			s.placementPublish.Inc()
			s.placement = pl2
			s.router.publish(pl2.Slots)
			s.mig = nil
		}
	}
	if err != nil {
		m.fenced = false
	}
	m.mu.Lock()
	close(m.gate)
	m.gate = nil
	m.mu.Unlock()
	s.migMu.Unlock()
	if err != nil {
		return recopied, err
	}
	s.migCutovers.Inc()
	return recopied, nil
}

// MigrationCleanupStep deletes up to maxKeys moved keys still on the
// source shard; when none remain it publishes PhaseNone and reports done.
// Idempotent across crashes (recovery's roll-forward arm is this same
// purge).
func (s *Store) MigrationCleanupStep(maxKeys int) (int, bool, error) {
	if maxKeys <= 0 {
		maxKeys = 64
	}
	s.migMu.RLock()
	pl := s.placement
	s.migMu.RUnlock()
	if pl.Journal.Phase != migrate.PhaseCleanup {
		if pl.Journal.Phase == migrate.PhaseNone {
			return 0, true, nil
		}
		return 0, false, fmt.Errorf("shard: cleanup step in journal phase %v", pl.Journal.Phase)
	}
	set := pl.Journal.MovingSet(s.numSlots)
	keys, err := s.collectMoving(pl.Journal.Src, set, maxKeys)
	if err != nil {
		return 0, false, err
	}
	if len(keys) == 0 {
		s.migMu.Lock()
		defer s.migMu.Unlock()
		if s.placement.Journal.Phase != migrate.PhaseCleanup {
			return 0, true, nil
		}
		pl2 := s.placement.Clone()
		pl2.Journal = migrate.Journal{}
		if err := s.publishPlacement(pl2); err != nil {
			return 0, false, err
		}
		s.placement = pl2
		return 0, true, nil
	}
	if err := s.deleteKeys(pl.Journal.Src, keys); err != nil {
		return 0, false, err
	}
	s.migCleanedKeys.Add(uint64(len(keys)))
	return len(keys), false, nil
}

// MigrationAbort rolls an unfinished copy phase back: wipe the partial
// copies from dst (only migration copies can be there — routing never
// pointed at dst for the moving slots) and journal PhaseNone. Source owns
// every key again, exactly as before MigrationBegin.
func (s *Store) MigrationAbort() error {
	s.migMu.Lock()
	defer s.migMu.Unlock()
	if s.mig == nil || s.placement.Journal.Phase != migrate.PhaseCopy {
		return errors.New("shard: no abortable migration (abort is only valid before cutover)")
	}
	m := s.mig
	set := s.placement.Journal.MovingSet(s.numSlots)
	if err := s.purgeMoving(m.dst, set); err != nil {
		return fmt.Errorf("shard: aborting migration: %w", err)
	}
	pl2 := s.placement.Clone()
	pl2.Journal = migrate.Journal{}
	if err := s.publishPlacement(pl2); err != nil {
		return err
	}
	s.placement = pl2
	s.mig = nil
	s.migAborts.Inc()
	return nil
}

// MigrationState summarizes an in-flight (journaled) migration for STATS.
type MigrationState struct {
	Phase string `json:"phase"`
	ID    uint64 `json:"id"`
	Src   int    `json:"src"`
	Dst   int    `json:"dst"`
	Slots int    `json:"slots"`
}

// PlacementInfo is the STATS `placement` section: geometry, record
// version, per-shard slot ownership, and the active migration (if any).
type PlacementInfo struct {
	Slots     int             `json:"slots"`
	Version   uint64          `json:"version"`
	Shards    []int           `json:"shard_slots"`
	Migration *MigrationState `json:"migration,omitempty"`
}

// Placement snapshots the placement for STATS and the PLACEMENT command.
func (s *Store) Placement() PlacementInfo {
	s.migMu.RLock()
	defer s.migMu.RUnlock()
	pl := s.placement
	info := PlacementInfo{Slots: pl.NumSlots, Version: pl.Version, Shards: pl.Counts()}
	if pl.Journal.Phase != migrate.PhaseNone {
		info.Migration = &MigrationState{
			Phase: pl.Journal.Phase.String(),
			ID:    pl.Journal.ID,
			Src:   pl.Journal.Src,
			Dst:   pl.Journal.Dst,
			Slots: len(pl.Journal.Slots),
		}
	}
	return info
}
