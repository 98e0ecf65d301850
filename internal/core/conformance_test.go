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

func TestConformanceAblations(t *testing.T) {
	cases := map[string]core.Config{
		"no-combining": {Variant: core.RomLog, DisableFlatCombining: true},
		"eager-pwb":    {Variant: core.RomLog, EagerPwb: true},
		"rom-eager":    {Variant: core.Rom, EagerPwb: true},
		"rom-full":     {Variant: core.Rom, FullReplicate: true},
	}
	for name, cfg := range cases {
		t.Run(name, func(t *testing.T) {
			cfg := cfg
			ptmtest.Run(t, ptmtest.Factory{
				Name: name,
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
