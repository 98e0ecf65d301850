package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/audit"
	"repro/internal/pmem"
	"repro/internal/ptm"
)

// equivOp is one randomized mutation of a round, applied identically to
// every engine. Engine 0 records the pointer its Alloc returned; the other
// engines assert theirs matches (the allocator is deterministic, so a
// divergence means the engines' heaps drifted apart).
type equivOp struct {
	run    func(tx ptm.Tx, first bool) error
	allocd ptm.Ptr // set by engine 0's execution when the op allocates
	frees  ptm.Ptr // non-zero when the op frees this block
	isAl   bool
}

// TestQuickDirtyRangeReplicateEquivalence is the property test behind the
// dirty-extent tracker: identical random operation sequences — solo
// commits, multi-op flat-combined batches, and whole-round rollbacks —
// drive a dirty-range rom engine, a FullReplicate rom engine (the paper's
// original O(watermark) back-copy) and a romlog engine. After every
// durability round:
//
//   - each engine's twin copies agree byte for byte (Verify), so
//     dirty-range replication leaves back == main exactly as the full copy
//     does;
//   - the dirty-range engine's main region is byte-identical to the
//     full-copy engine's, so line-granular tracking never changes committed
//     (or rolled-back) state;
//   - the auditor shadowing the dirty-range engine has seen no clean-line
//     pwb: every line the new replicate (and rollback) path writes back was
//     stored this round.
func TestQuickDirtyRangeReplicateEquivalence(t *testing.T) {
	const region = 1 << 18
	mk := func(name string, cfg Config) *Engine {
		cfg.Model = pmem.ModelDRAM
		e, err := New(region, cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		return e
	}
	dirty := mk("dirty", Config{Variant: Rom})
	full := mk("full", Config{Variant: Rom, FullReplicate: true})
	rlog := mk("romlog", Config{Variant: RomLog})
	engines := []*Engine{dirty, full, rlog}
	names := []string{"dirty", "full", "romlog"}

	aud := audit.New(dirty.Device(), audit.Options{})
	aud.Attach()
	dirty.SetAuditor(aud)

	rng := rand.New(rand.NewSource(7))
	var live []ptm.Ptr // identical across engines

	// plan builds one op against view, the shrinking within-round picture of
	// live blocks (ops never target a block freed — or allocated — earlier
	// in the same round; cross-round effects are applied after commit).
	plan := func(view *[]ptm.Ptr) *equivOp {
		o := &equivOp{}
		kind := rng.Intn(10)
		switch {
		case kind < 4 && len(*view) > 0: // scattered small store
			p := (*view)[rng.Intn(len(*view))]
			off := ptm.Ptr(rng.Intn(56))
			v := rng.Uint64()
			sz := rng.Intn(4)
			o.run = func(tx ptm.Tx, _ bool) error {
				switch sz {
				case 0:
					tx.Store8(p+off, byte(v))
				case 1:
					tx.Store16(p+off, uint16(v))
				case 2:
					tx.Store32(p+off, uint32(v))
				default:
					tx.Store64(p+off, v)
				}
				return nil
			}
		case kind < 6 && len(*view) > 0: // bulk StoreBytes
			p := (*view)[rng.Intn(len(*view))]
			buf := make([]byte, 1+rng.Intn(64))
			rng.Read(buf)
			o.run = func(tx ptm.Tx, _ bool) error { tx.StoreBytes(p, buf); return nil }
		case kind < 8 || len(*view) == 0: // alloc: grows watermark, memsets
			n := 64 + rng.Intn(2048)
			o.isAl = true
			o.run = func(tx ptm.Tx, first bool) error {
				p, err := tx.Alloc(n)
				if err != nil {
					return err
				}
				if first {
					o.allocd = p
				} else if p != o.allocd {
					return fmt.Errorf("allocator diverged: got %d, engine 0 got %d", p, o.allocd)
				}
				tx.SetRoot(0, p)
				return nil
			}
		default: // free a random block
			i := rng.Intn(len(*view))
			p := (*view)[i]
			*view = append((*view)[:i], (*view)[i+1:]...)
			o.frees = p
			o.run = func(tx ptm.Tx, _ bool) error { return tx.Free(p) }
		}
		return o
	}

	apply := func(ops []*equivOp) {
		for _, o := range ops {
			switch {
			case o.isAl:
				live = append(live, o.allocd)
			case o.frees != 0:
				for i, p := range live {
					if p == o.frees {
						live = append(live[:i], live[i+1:]...)
						break
					}
				}
			}
		}
	}

	check := func(round int) {
		t.Helper()
		for i, e := range engines {
			if off := e.Verify(); off >= 0 {
				t.Fatalf("round %d: %s twin copies diverge at offset %d", round, names[i], off)
			}
		}
		dwm, fwm := dirty.Watermark(), full.Watermark()
		if dwm != fwm {
			t.Fatalf("round %d: watermark %d (dirty) vs %d (full)", round, dwm, fwm)
		}
		dm := dirty.Device().Bytes(dirty.mainBase, dwm)
		fm := full.Device().Bytes(full.mainBase, fwm)
		if !bytes.Equal(dm, fm) {
			i := 0
			for i < len(dm) && dm[i] == fm[i] {
				i++
			}
			t.Fatalf("round %d: dirty-range main diverges from full-copy main at offset %d", round, i)
		}
	}

	for round := 0; round < 400; round++ {
		view := append([]ptm.Ptr(nil), live...)
		ops := make([]*equivOp, 1+rng.Intn(4))
		for i := range ops {
			ops[i] = plan(&view)
		}
		switch mode := rng.Intn(4); mode {
		case 0, 1: // flat-combined batch commit through the writer hooks
			for ei, e := range engines {
				tx := e.hooks.Begin()
				for _, o := range ops {
					if err := o.run(tx, ei == 0); err != nil {
						t.Fatalf("round %d: %s: %v", round, names[ei], err)
					}
				}
				e.hooks.Commit(tx, len(ops))
				e.hooks.Replicate(tx)
			}
			apply(ops)
		case 2: // solo commits through the public Update path
			for ei, e := range engines {
				for _, o := range ops {
					o := o
					if err := e.Update(func(tx ptm.Tx) error { return o.run(tx, ei == 0) }); err != nil {
						t.Fatalf("round %d: %s: %v", round, names[ei], err)
					}
				}
			}
			apply(ops)
		case 3: // rollback: apply every op, then revert the whole round
			for ei, e := range engines {
				tx := e.hooks.Begin()
				for _, o := range ops {
					if err := o.run(tx, ei == 0); err != nil {
						t.Fatalf("round %d: %s: %v", round, names[ei], err)
					}
				}
				e.hooks.Rollback(tx)
			}
			// Rolled back: no allocation or free survives.
		}
		check(round)
	}

	if n := aud.ViolationCount(); n > 0 {
		t.Errorf("auditor found %d durability violation(s) on the dirty-range engine", n)
	}
	if tot := aud.Totals(); tot.PwbClean != 0 {
		t.Errorf("dirty-range replication issued %d clean-line pwbs, want 0", tot.PwbClean)
	}
}
