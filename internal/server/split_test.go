package server

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/kvstore"
	"repro/internal/migrate"
	"repro/internal/ptm"
	"repro/internal/shard"
)

// placementReply mirrors the PLACEMENT command's JSON for test decoding.
type placementReply struct {
	Slots      int            `json:"slots"`
	Version    uint64         `json:"version"`
	ShardSlots []int          `json:"shard_slots"`
	Driver     migrate.Status `json:"driver"`
}

func (cl *client) placement(t *testing.T) placementReply {
	t.Helper()
	reply, err := cl.do("PLACEMENT")
	if err != nil {
		t.Fatalf("PLACEMENT: %v", err)
	}
	js, ok := strings.CutPrefix(reply, "PLACEMENT ")
	if !ok {
		t.Fatalf("PLACEMENT reply %q", reply)
	}
	var pr placementReply
	if err := json.Unmarshal([]byte(js), &pr); err != nil {
		t.Fatalf("PLACEMENT json: %v", err)
	}
	return pr
}

// TestServerSplitEndToEnd drives an online split over the wire: SPLIT
// provisions a shard and answers immediately, writes and reads keep being
// served (and stay correct) while the migration runs in the background, and
// PLACEMENT/STATS report the grown slot map once it lands.
func TestServerSplitEndToEnd(t *testing.T) {
	st, err := shard.Open(shard.Options{
		Shards:     2,
		RegionSize: 512 << 10,
		CoordSize:  64 << 10,
		Variant:    core.RomLog,
		Audit:      true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	srv, addr, done := startServer(t, st)

	cl := dial(t, addr)
	const n = 400
	for i := 0; i < n; i++ {
		cl.must(t, fmt.Sprintf("SET split-key-%03d v%03d", i, i), "OK")
	}
	before := cl.placement(t)
	if len(before.ShardSlots) != 2 || before.Driver.Active {
		t.Fatalf("pre-split placement: %+v", before)
	}

	reply, err := cl.do("SPLIT 0")
	if err != nil {
		t.Fatal(err)
	}
	if reply != "OK 2" {
		t.Fatalf("SPLIT 0: %q, want OK 2", reply)
	}

	// A second connection keeps writing and reading its own writes while the
	// migration proceeds underneath it.
	wcl := dial(t, addr)
	stop := make(chan struct{})
	werrs := make(chan error, 1)
	go func() {
		defer close(werrs)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			k := fmt.Sprintf("live-%03d", i%50)
			if _, err := wcl.do(fmt.Sprintf("SET %s gen%d", k, i)); err != nil {
				werrs <- err
				return
			}
			got, err := wcl.do("GET " + k)
			if err != nil {
				werrs <- err
				return
			}
			if got != fmt.Sprintf("VALUE gen%d", i) {
				werrs <- fmt.Errorf("read-your-writes broke mid-split: %s = %q", k, got)
				return
			}
		}
	}()

	deadline := time.Now().Add(20 * time.Second)
	var after placementReply
	for {
		after = cl.placement(t)
		if !after.Driver.Active && after.Driver.Phase != "" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("split did not finish: %+v", after)
		}
		time.Sleep(5 * time.Millisecond)
	}
	close(stop)
	if err := <-werrs; err != nil {
		t.Fatal(err)
	}
	if after.Driver.Phase != "done" || after.Driver.Error != "" {
		t.Fatalf("split ended %q (err %q), want done", after.Driver.Phase, after.Driver.Error)
	}
	if len(after.ShardSlots) != 3 || after.ShardSlots[2] == 0 {
		t.Fatalf("post-split slot map %v, want 3 shards with slots on shard 2", after.ShardSlots)
	}

	// Every pre-split key still reads back through the new routing.
	for i := 0; i < n; i++ {
		cl.must(t, fmt.Sprintf("GET split-key-%03d", i), fmt.Sprintf("VALUE v%03d", i))
	}

	// STATS carries the placement section and the grown shard count.
	raw, err := cl.do("STATS")
	if err != nil {
		t.Fatal(err)
	}
	var stats struct {
		Shards    int `json:"shards"`
		Placement struct {
			ShardSlots []int `json:"shard_slots"`
		} `json:"placement"`
	}
	if err := json.Unmarshal([]byte(strings.TrimPrefix(raw, "STATS ")), &stats); err != nil {
		t.Fatal(err)
	}
	if stats.Shards != 3 || len(stats.Placement.ShardSlots) != 3 {
		t.Fatalf("STATS after split: shards=%d placement=%v", stats.Shards, stats.Placement.ShardSlots)
	}

	// Argument and exclusion errors. The in-flight migration is held open by
	// driving the server's own driver directly, so the refusal is
	// deterministic rather than a race against a background run.
	cl.must(t, "SPLIT", "ERR SPLIT needs a source shard index")
	cl.must(t, "SPLIT abc", "ERR SPLIT needs a source shard index")
	if got, _ := cl.do("SPLIT 99"); !strings.HasPrefix(got, "ERR split:") {
		t.Fatalf("SPLIT 99: %q", got)
	}
	if _, err := srv.driver.Begin(0, -1); err != nil {
		t.Fatalf("second migration begin: %v", err)
	}
	cl.must(t, "SPLIT 1", "ERR migration already in progress")
	if err := srv.driver.Run(); err != nil {
		t.Fatalf("second migration run: %v", err)
	}

	if v := st.ViolationCount(); v != 0 {
		t.Fatalf("audit violations: %d", v)
	}
	shutdown(t, srv, done)
}

// gatedTarget parks the driver inside its cutover step — holding the
// driver's lock — until released.
type gatedTarget struct {
	*shard.Store
	entered, release chan struct{}
}

func (g *gatedTarget) MigrationCutover(maxKeys int) (int, error) {
	close(g.entered)
	<-g.release
	return g.Store.MigrationCutover(maxKeys)
}

// TestPlacementStatusNotAheadOfSlotMap pins the PLACEMENT read order: a poll
// that arrives while the driver is mid-step waits on the driver's lock, and
// whatever status it then reports, the slot map beside it must be at least as
// new. The seed read the slot map first and answered phase "done" with the
// pre-cutover map. (The sleep only gives the poll time to park; without it
// the test still passes, it just stops exercising the straddle.)
func TestPlacementStatusNotAheadOfSlotMap(t *testing.T) {
	st, err := shard.Open(shard.Options{
		Shards: 2, RegionSize: 512 << 10, CoordSize: 64 << 10, Variant: core.RomLog,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	srv := New(st, Options{})
	gt := &gatedTarget{Store: st, entered: make(chan struct{}), release: make(chan struct{})}
	srv.driver = migrate.New(gt, migrate.Options{})
	addr, done := startServerWith(t, srv)
	cl := dial(t, addr)
	for i := 0; i < 100; i++ {
		cl.must(t, fmt.Sprintf("SET straddle-%03d v", i), "OK")
	}

	if _, err := srv.driver.Begin(0, -1); err != nil {
		t.Fatal(err)
	}
	ran := make(chan error, 1)
	go func() { ran <- srv.driver.Run() }()
	<-gt.entered
	if _, err := cl.c.Write([]byte("PLACEMENT\n")); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond)
	close(gt.release)
	if err := <-ran; err != nil {
		t.Fatalf("split: %v", err)
	}

	line, err := cl.r.ReadString('\n')
	if err != nil {
		t.Fatal(err)
	}
	var pr placementReply
	if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "PLACEMENT ")), &pr); err != nil {
		t.Fatalf("PLACEMENT reply %q: %v", line, err)
	}
	cutOver := pr.Driver.Phase == "cleanup" || pr.Driver.Phase == "done"
	if cutOver && (len(pr.ShardSlots) != 3 || pr.ShardSlots[2] == 0) {
		t.Fatalf("PLACEMENT reports phase %q with pre-cutover slot map %v", pr.Driver.Phase, pr.ShardSlots)
	}
	shutdown(t, srv, done)
}

// TestGroupCommitReroutesStaleRoute pins the committer's route re-check: an
// operation submitted to a shard that no longer owns its key (exactly what a
// cutover between submit and drain produces) is split out of the batch and
// re-dispatched on the owning shard, and the reroute is counted.
func TestGroupCommitReroutesStaleRoute(t *testing.T) {
	st := newTestStore(t)
	defer st.Close()
	srv := New(st, Options{})
	defer srv.Shutdown(context.Background())

	key := []byte("reroute-me")
	right := st.ShardFor(key)
	wrong := (right + 1) % st.NumShards()
	p := newPending("set", setBody)
	p.setKey(key, []byte("v1"))
	p.Wake = make(chan struct{}, 1)
	if got := srv.committer.enqueue(wrong, p).Wait(); got != "OK" {
		t.Fatalf("stale-routed SET: %q", got)
	}
	if rr := srv.committer.Stats().Reroutes; rr != 1 {
		t.Fatalf("reroutes counter = %d, want 1 (the op was not re-dispatched)", rr)
	}
	var got string
	err := st.ViewKey(key, func(tx ptm.Tx, db *kvstore.DB) error {
		v, err := db.GetTx(tx, key)
		if err != nil {
			return err
		}
		got = string(v)
		return nil
	})
	if err != nil || got != "v1" {
		t.Fatalf("value after reroute: %q, %v", got, err)
	}
}

// TestSplitWithFlightRecorderUnderLoad splits a flight-recorded shard —
// romulusd's default — while connections pipeline SETs at it. The group
// leader's flight records and the migration's copy and cleanup steps write
// the same shard device, whose data path is single-writer, so they must
// serialize on the engine's writer lock; under -race an append outside it
// is a reported data race.
func TestSplitWithFlightRecorderUnderLoad(t *testing.T) {
	st, err := shard.Open(shard.Options{Shards: 1, RegionSize: 512 << 10, CoordSize: 64 << 10,
		Variant: core.RomLog, Blackbox: true})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	srv, addr, done := startServer(t, st)
	cl := dial(t, addr)
	const n = 300
	for i := 0; i < n; i++ {
		cl.must(t, fmt.Sprintf("SET pre-%03d v%03d", i, i), "OK")
	}

	const conns, burst = 4, 16
	stop := make(chan struct{})
	errs := make(chan error, conns)
	for c := 0; c < conns; c++ {
		wcl := dial(t, addr)
		go func() {
			for i := 0; ; i++ {
				select {
				case <-stop:
					errs <- nil
					return
				default:
				}
				cmds := make([]string, burst)
				for j := range cmds {
					cmds[j] = fmt.Sprintf("SET load-%d-%03d g%d", c, (i*burst+j)%128, i)
				}
				if _, err := wcl.c.Write([]byte(strings.Join(cmds, "\n") + "\n")); err != nil {
					errs <- err
					return
				}
				for range cmds {
					if reply, err := wcl.r.ReadString('\n'); err != nil || reply != "OK\n" {
						errs <- fmt.Errorf("conn %d burst %d: reply %q err %v", c, i, reply, err)
						return
					}
				}
			}
		}()
	}

	cl.must(t, "SPLIT 0", "OK 1")
	deadline := time.Now().Add(20 * time.Second)
	for pr := cl.placement(t); pr.Driver.Active || pr.Driver.Phase == ""; pr = cl.placement(t) {
		if time.Now().After(deadline) {
			t.Fatalf("split did not finish: %+v", pr)
		}
		time.Sleep(5 * time.Millisecond)
	}
	close(stop)
	for c := 0; c < conns; c++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if pr := cl.placement(t); pr.Driver.Phase != "done" || len(pr.ShardSlots) != 2 {
		t.Fatalf("split ended %+v, want done over 2 shards", pr)
	}
	for i := 0; i < n; i++ {
		cl.must(t, fmt.Sprintf("GET pre-%03d", i), fmt.Sprintf("VALUE v%03d", i))
	}
	shutdown(t, srv, done)
}
