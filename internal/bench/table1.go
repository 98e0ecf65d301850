package bench

import (
	"fmt"

	"repro/internal/pmem"
	"repro/internal/ptm"
)

// table1Row is one measured (or analytic) row of the paper's Table 1.
type table1Row struct {
	engine        string
	logType       string
	interposition string
	// Per transaction, measured over dense word stores:
	fences           float64 // pfence + psync
	pwbs             float64
	userBytes        float64
	persistedBytes   float64
	amplificationPct float64 // additional persistent bytes per user byte
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
	rows, err := measureTable1(stores, txs)
	if err != nil {
		return "", err
	}
	t := newTable("engine", "log type", "interposition", "fences/tx", "pwbs/tx", "user B/tx", "persisted B/tx", "amplification %")
	for _, r := range append(rows, analyticTable1Rows(stores)...) {
		t.row(r.engine, r.logType, r.interposition, r.fences, r.pwbs, r.userBytes, r.persistedBytes, r.amplificationPct)
	}
	return fmt.Sprintf("Table 1 — transactional persistence costs (%d stores/tx; paper-only systems analytic)\n%s", stores, t), nil
}

// analyticTable1Rows reproduces the non-runnable rows of Table 1 (systems
// the paper describes but whose code is not part of this evaluation),
// using the paper's own formulas with the given store count.
func analyticTable1Rows(stores int) []table1Row {
	n := float64(stores)
	return []table1Row{
		{engine: "vista (paper)", logType: "undo", interposition: "stores",
			fences: n, userBytes: n * 8, persistedBytes: n * 8 * 4, amplificationPct: 300},
		{engine: "atlas (paper)", logType: "undo", interposition: "stores",
			fences: 2 + 3*n, userBytes: n * 8, persistedBytes: n * 8 * 5, amplificationPct: 400},
		{engine: "justdo (paper)", logType: "done-to-here", interposition: "stores",
			fences: 2 + 3*n, userBytes: n * 8, persistedBytes: n * 8 * 5, amplificationPct: 400},
	}
}

// measureTable1 runs the same dense-store transaction on every runnable
// engine and reports measured persistence costs. Each transaction writes
// `stores` consecutive 64-bit words of a prefilled buffer; contiguous
// stores keep cache-line accounting comparable to the paper's
// word-granularity analysis.
func measureTable1(stores, txs int) ([]table1Row, error) {
	var rows []table1Row
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
		rows = append(rows, table1Row{
			engine:           kind,
			logType:          meta[0],
			interposition:    meta[1],
			fences:           (float64(s.Pfences) + float64(s.Psyncs)) / k,
			pwbs:             float64(s.Pwbs) / k,
			userBytes:        user,
			persistedBytes:   persisted,
			amplificationPct: (persisted - user) / user * 100,
		})
	}
	return rows, nil
}
