package linearize_test

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/linearize"
	"repro/internal/ptm"
	"repro/internal/redolog"
	"repro/internal/undolog"
)

// engines under test: all five PTMs must produce linearizable histories on
// a shared register.
func linEngines(t *testing.T) map[string]ptm.PTM {
	t.Helper()
	out := map[string]ptm.PTM{}
	for _, v := range []core.Variant{core.Rom, core.RomLog, core.RomLR} {
		e, err := core.New(1<<20, core.Config{Variant: v})
		if err != nil {
			t.Fatal(err)
		}
		out[v.String()] = e
	}
	u, err := undolog.New(1<<20, undolog.Config{})
	if err != nil {
		t.Fatal(err)
	}
	out["pmdk"] = u
	r, err := redolog.New(1<<20, redolog.Config{})
	if err != nil {
		t.Fatal(err)
	}
	out["mne"] = r
	return out
}

// TestEnginesProduceLinearizableHistories drives three goroutines over a
// persistent register and checks every recorded history against the
// sequential register model — an executable version of the paper's durable
// linearizability claim (§5.2).
func TestEnginesProduceLinearizableHistories(t *testing.T) {
	for name, e := range linEngines(t) {
		t.Run(name, func(t *testing.T) {
			for round := 0; round < 8; round++ {
				var reg ptm.Ptr
				if err := e.Update(func(tx ptm.Tx) error {
					var err error
					reg, err = tx.Alloc(8)
					return err
				}); err != nil {
					t.Fatal(err)
				}
				var clock atomic.Int64
				type slot struct {
					ops []linearize.Op
				}
				workers := 3
				opsPer := 4
				slots := make([]slot, workers)
				var wg sync.WaitGroup
				for w := 0; w < workers; w++ {
					wg.Add(1)
					go func(w int) {
						defer wg.Done()
						for i := 0; i < opsPer; i++ {
							var op linearize.Op
							var err error
							if (w+i)%2 == 0 {
								val := uint64(round*100 + w*10 + i + 1)
								op.Kind, op.Arg = "write", val
								op.Invoke = clock.Add(1)
								err = e.Update(func(tx ptm.Tx) error {
									tx.Store64(reg, val)
									return nil
								})
								op.Return = clock.Add(1)
							} else {
								op.Kind = "read"
								op.Invoke = clock.Add(1)
								err = e.Read(func(tx ptm.Tx) error {
									op.Result = tx.Load64(reg)
									return nil
								})
								op.Return = clock.Add(1)
							}
							if err != nil {
								t.Error(err)
								return
							}
							slots[w].ops = append(slots[w].ops, op)
						}
					}(w)
				}
				wg.Wait()
				var history []linearize.Op
				for _, s := range slots {
					history = append(history, s.ops...)
				}
				if !linearize.Check(linearize.RegisterModel{}, history) {
					t.Fatalf("round %d: non-linearizable history:\n%s", round, fmtHistory(history))
				}
			}
		})
	}
}

func fmtHistory(h []linearize.Op) string {
	out := ""
	for _, op := range h {
		out += fmt.Sprintf("  [%3d,%3d] %s(%d) -> %d\n", op.Invoke, op.Return, op.Kind, op.Arg, op.Result)
	}
	return out
}

// TestCheckerCatchesBrokenEngine sanity-checks the harness itself: a
// deliberately broken "engine" (reads bypass synchronization and return a
// cached stale value) must be flagged. Without this, a vacuously-passing
// checker would go unnoticed.
func TestCheckerCatchesBrokenEngine(t *testing.T) {
	// Construct a manually corrupted history equivalent to a stale cache:
	// write 1 completes, then a later read returns 0.
	h := []linearize.Op{
		{Invoke: 1, Return: 2, Kind: "write", Arg: 1},
		{Invoke: 3, Return: 4, Kind: "read", Result: 0},
	}
	if linearize.Check(linearize.RegisterModel{}, h) {
		t.Fatal("checker failed to flag a stale read")
	}
}
