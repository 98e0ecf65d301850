package core_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/pmem"
	"repro/internal/ptmtest"
)

func TestConformance(t *testing.T) {
	for _, v := range []core.Variant{core.Rom, core.RomLog, core.RomLR} {
		t.Run(v.String(), func(t *testing.T) {
			cfg := core.Config{Variant: v}
			ptmtest.Run(t, ptmtest.Factory{
				Name: v.String(),
				New: func(tb testing.TB) ptmtest.Engine {
					e, err := core.New(1<<20, cfg)
					if err != nil {
						tb.Fatal(err)
					}
					return e
				},
				Reopen: func(tb testing.TB, img []byte) (ptmtest.Engine, error) {
					return core.Open(pmem.FromImage(img, pmem.ModelDRAM), cfg)
				},
			})
		})
	}
}

// TestConformanceAblations runs the suite on configurations off the default
// path. The eager cases install per-store write-back on the device (eagerPwb).
func TestConformanceAblations(t *testing.T) {
	cases := map[string]struct {
		cfg   core.Config
		eager bool
	}{
		"no-combining": {cfg: core.Config{Variant: core.RomLog, DisableFlatCombining: true}},
		"eager-pwb":    {cfg: core.Config{Variant: core.RomLog}, eager: true},
		"rom-eager":    {cfg: core.Config{Variant: core.Rom}, eager: true},
		"rom-full":     {cfg: core.Config{Variant: core.Rom, FullReplicate: true}},
	}
	for name, c := range cases {
		t.Run(name, func(t *testing.T) {
			open := func(e *core.Engine) *core.Engine {
				if c.eager {
					eagerPwb(e.Device())
				}
				return e
			}
			ptmtest.Run(t, ptmtest.Factory{
				Name: name,
				New: func(tb testing.TB) ptmtest.Engine {
					e, err := core.New(1<<20, c.cfg)
					if err != nil {
						tb.Fatal(err)
					}
					return open(e)
				},
				Reopen: func(tb testing.TB, img []byte) (ptmtest.Engine, error) {
					e, err := core.Open(pmem.FromImage(img, pmem.ModelDRAM), c.cfg)
					if err != nil {
						return nil, err
					}
					return open(e), nil
				},
			})
		})
	}
}

// eagerPwb makes dev write back every store's lines the moment they land,
// re-flushing lines already queued: the flush discipline before the durable
// point took over the write-backs. An engine must stay correct under it — a
// write-back only lets a line reach the media sooner — and with the hook
// installed every write-back takes the device's per-line path.
func eagerPwb(dev *pmem.Device) { dev.SetHooks(&pmem.Hooks{StoreAt: dev.PwbRange}) }
