package crashtest

import (
	"bytes"
	"encoding/binary"
	"errors"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/pmem"
	"repro/internal/ptm"
)

// TestFaultCampaignAllEngines chains tear/rot/media rounds across every
// engine under the auditor. Any corrupt-and-served outcome, untyped error,
// or durability violation fails the campaign.
func TestFaultCampaignAllEngines(t *testing.T) {
	rounds := 40
	if testing.Short() {
		rounds = 8
	}
	reg := obs.NewRegistry()
	reports, err := Run(Config{Scenario: "faults", Rounds: rounds, Seed: 20260808, Audit: true, Metrics: reg})
	if err != nil {
		t.Fatalf("fault campaign: %v", err)
	}
	if len(reports) != len(targets) {
		t.Fatalf("got %d reports, want %d", len(reports), len(targets))
	}
	for _, rep := range reports {
		if rep.Rounds != rounds {
			t.Errorf("%s: completed %d rounds, want %d", rep.Engine, rep.Rounds, rounds)
		}
		// Every round's rot trial ends in exactly one of the two acceptable
		// outcomes; anything else would have failed the campaign above.
		if rep.Count("rot_detected")+rep.Count("rot_benign") != uint64(rounds) {
			t.Errorf("%s: rot outcomes %d detected + %d benign != %d rounds",
				rep.Engine, rep.Count("rot_detected"), rep.Count("rot_benign"), rounds)
		}
		// The media phase always trips faults (transient then sticky).
		if rep.Count("trip") == 0 {
			t.Errorf("%s: media phase tripped no faults (vacuous?)", rep.Engine)
		}
		if rep.AuditViolations != 0 {
			t.Errorf("%s: %d audit violations", rep.Engine, rep.AuditViolations)
		}
	}
	if v := reg.Counter("fault_rounds_total").Load(); v != uint64(rounds*len(targets)) {
		t.Errorf("fault_rounds_total = %d, want %d", v, rounds*len(targets))
	}
	if reg.Counter("fault_trip_total").Load() == 0 {
		t.Error("fault_trip_total not accumulated")
	}
}

// TestFaultCampaignReproducible pins determinism: same seed, same reports.
func TestFaultCampaignReproducible(t *testing.T) {
	cfg := Config{Scenario: "faults", Rounds: 4, Seed: 7, Engines: []string{"romlog"}, Audit: true}
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed diverged:\n%+v\n%+v", a, b)
	}
}

// TestUnhardenedEngineServesRot is the campaign's non-vacuity fixture. Rot in
// one copy is refused at a quiescent open (ErrCorruptPayload), but the same
// rot landed identically in both twins leaves them agreeing: the engine opens
// the image cleanly and serves the rotted value — exactly the
// corrupt-and-served outcome the exact-state check exists to catch.
func TestUnhardenedEngineServesRot(t *testing.T) {
	e, err := core.New(crashRegion, core.Config{Variant: core.Rom})
	if err != nil {
		t.Fatal(err)
	}
	st, err := newMapStore(e, true)
	if err != nil {
		t.Fatal(err)
	}
	const sentinel = 0x6B7C8D9EAFB0C1D2
	model := map[uint64]uint64{1: sentinel, 2: 42}
	if err := st.update([]op{{k: 1, v: sentinel}, {k: 2, v: 42}}); err != nil {
		t.Fatal(err)
	}
	st.dev().PersistAll()
	img := st.dev().Persisted()

	// The sentinel value occurs once in the main copy and once in back.
	var sb [8]byte
	binary.LittleEndian.PutUint64(sb[:], sentinel)
	mainOff := bytes.Index(img, sb[:])
	if mainOff < 0 {
		t.Fatal("sentinel value not found in main")
	}
	backOff := mainOff + 8 + bytes.Index(img[mainOff+8:], sb[:])
	if backOff < mainOff+8 {
		t.Fatal("sentinel value not found in back")
	}

	// Rot one bit in main only: the twin comparison refuses the image, typed.
	img[mainOff] ^= 0x01
	if _, err := core.Open(pmem.FromImage(img, pmem.ModelDRAM), core.Config{Variant: core.Rom}); !errors.Is(err, ptm.ErrCorruptPayload) {
		t.Fatalf("open with main rotted: err = %v, want ErrCorruptPayload", err)
	}

	// The same rot in back too: the twins agree, so the open accepts the
	// image and serves the rot silently; the campaign's exact-state
	// validation is what flags it.
	img[backOff] ^= 0x01
	e2, err := core.Open(pmem.FromImage(img, pmem.ModelDRAM), core.Config{Variant: core.Rom})
	if err != nil {
		t.Fatalf("open with both twins rotted alike refused: %v", err)
	}
	st2, err := newMapStore(e2, false)
	if err != nil {
		t.Fatal(err)
	}
	v, found, err := st2.get(1)
	if err != nil || !found {
		t.Fatalf("get(1) = %v, %v", found, err)
	}
	if v == sentinel {
		t.Fatal("rot did not land in the sentinel value; fixture is vacuous")
	}
	if err := exactCheck(st2, model, 3); err == nil {
		t.Fatal("exactCheck passed on an engine serving rotted data; the campaign's detector is vacuous")
	}
}
