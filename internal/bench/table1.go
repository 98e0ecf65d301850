package bench

import (
	"fmt"

	"repro/internal/pmem"
	"repro/internal/ptm"
)

// Table1Row is one measured (or analytic) row of the paper's Table 1.
type Table1Row struct {
	Engine        string
	LogType       string
	Interposition string
	// Per transaction, measured over dense word stores:
	Fences           float64 // pfence + psync
	Pwbs             float64
	UserBytes        float64
	PersistedBytes   float64
	AmplificationPct float64 // additional persistent bytes per user byte
}

// engineMeta carries the static columns of Table 1.
var engineMeta = map[string][2]string{
	"rom":    {"volatile redo", "stores"},
	"romlog": {"volatile redo", "stores"},
	"romlr":  {"volatile redo", "stores"},
	"mne":    {"redo", "loads + stores"},
	"pmdk":   {"undo", "stores"},
}

// Table1 renders Table 1: the measured rows of every runnable engine, each
// transaction writing stores consecutive words (default 64) averaged over txs
// transactions (default 100), then the paper-only systems' analytic rows.
func Table1(stores, txs int) (string, error) {
	if stores == 0 {
		stores = 64
	}
	if txs == 0 {
		txs = 100
	}
	rows, err := MeasureTable1(stores, txs)
	if err != nil {
		return "", err
	}
	t := NewTable("engine", "log type", "interposition", "fences/tx", "pwbs/tx", "user B/tx", "persisted B/tx", "amplification %")
	for _, r := range append(rows, AnalyticTable1Rows(stores)...) {
		t.Row(r.Engine, r.LogType, r.Interposition, r.Fences, r.Pwbs, r.UserBytes, r.PersistedBytes, r.AmplificationPct)
	}
	return fmt.Sprintf("Table 1 — transactional persistence costs (%d stores/tx; paper-only systems analytic)\n%s", stores, t), nil
}

// AnalyticTable1Rows reproduces the non-runnable rows of Table 1 (systems
// the paper describes but whose code is not part of this evaluation),
// using the paper's own formulas with the given store count.
func AnalyticTable1Rows(stores int) []Table1Row {
	n := float64(stores)
	return []Table1Row{
		{Engine: "vista (paper)", LogType: "undo", Interposition: "stores",
			Fences: n, UserBytes: n * 8, PersistedBytes: n * 8 * 4, AmplificationPct: 300},
		{Engine: "atlas (paper)", LogType: "undo", Interposition: "stores",
			Fences: 2 + 3*n, UserBytes: n * 8, PersistedBytes: n * 8 * 5, AmplificationPct: 400},
		{Engine: "justdo (paper)", LogType: "done-to-here", Interposition: "stores",
			Fences: 2 + 3*n, UserBytes: n * 8, PersistedBytes: n * 8 * 5, AmplificationPct: 400},
	}
}

// MeasureTable1 runs the same dense-store transaction on every runnable
// engine and reports measured persistence costs. Each transaction writes
// `stores` consecutive 64-bit words of a prefilled buffer; contiguous
// stores keep cache-line accounting comparable to the paper's
// word-granularity analysis.
func MeasureTable1(stores, txs int) ([]Table1Row, error) {
	var rows []Table1Row
	for _, kind := range EngineKinds {
		e, err := NewEngine(kind, (stores*8*4)+(8<<20), pmem.ModelDRAM)
		if err != nil {
			return nil, err
		}
		var buf ptm.Ptr
		if err := e.Update(func(tx ptm.Tx) error {
			var err error
			buf, err = tx.Alloc(stores * 8)
			return err
		}); err != nil {
			return nil, fmt.Errorf("bench: table1 setup (%s): %w", kind, err)
		}
		// Warm up once so allocator effects do not pollute the measurement.
		if err := e.Update(func(tx ptm.Tx) error {
			for i := 0; i < stores; i++ {
				tx.Store64(buf+ptm.Ptr(i*8), uint64(i))
			}
			return nil
		}); err != nil {
			return nil, err
		}
		e.Device().ResetStats()
		for t := 0; t < txs; t++ {
			if err := e.Update(func(tx ptm.Tx) error {
				for i := 0; i < stores; i++ {
					tx.Store64(buf+ptm.Ptr(i*8), uint64(t+i))
				}
				return nil
			}); err != nil {
				return nil, err
			}
		}
		s := e.Device().Stats()
		k := float64(txs)
		user := float64(stores * 8)
		persisted := float64(s.BytesPersisted) / k
		meta := engineMeta[kind]
		rows = append(rows, Table1Row{
			Engine:           kind,
			LogType:          meta[0],
			Interposition:    meta[1],
			Fences:           (float64(s.Pfences) + float64(s.Psyncs)) / k,
			Pwbs:             float64(s.Pwbs) / k,
			UserBytes:        user,
			PersistedBytes:   persisted,
			AmplificationPct: (persisted - user) / user * 100,
		})
	}
	return rows, nil
}
