package bench

import (
	"bytes"
	"flag"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/audit"
	"repro/internal/obs"
	"repro/internal/pmem"
	"repro/internal/pstruct"
	"repro/internal/ptm"
)

// The deterministic persistence-cost gates. The fences, pwbs and copied bytes
// of a transaction are functions of the engine's protocol and the operation
// sequence alone, so the tests below assert them exactly. Each BenchmarkLog*
// runs beside a BenchmarkRaw* that persists the same user bytes straight on
// a bare device: the floor a transaction's cost is read against.

var updateGolden = flag.Bool("update", false, "rewrite golden trace files")

const swapArrayLen = 1024

// newSwapArray allocates the SPS array of §6.6 (Figure 9's workload) and
// resets the device's statistics, so counts describe only what follows.
func newSwapArray(tb testing.TB, e Engine) ptm.Ptr {
	tb.Helper()
	var arr ptm.Ptr
	if err := e.Update(func(tx ptm.Tx) error {
		var err error
		if arr, err = tx.Alloc(swapArrayLen * 8); err != nil {
			return err
		}
		for i := 0; i < swapArrayLen; i++ {
			tx.Store64(arr+ptm.Ptr(i*8), uint64(i))
		}
		return nil
	}); err != nil {
		tb.Fatal(err)
	}
	e.Device().ResetStats()
	return arr
}

// runSwaps commits ops single-swap transactions from seed, with one read
// transaction after every fourth: the sequence the golden trace pins.
func runSwaps(tb testing.TB, e Engine, arr ptm.Ptr, ops int, seed int64) {
	tb.Helper()
	h, err := e.NewHandle()
	if err != nil {
		tb.Fatal(err)
	}
	defer h.Release()
	rng := rand.New(rand.NewSource(seed))
	for n := 0; n < ops; n++ {
		i := ptm.Ptr(rng.Intn(swapArrayLen) * 8)
		j := ptm.Ptr(rng.Intn(swapArrayLen) * 8)
		if err := h.Update(func(tx ptm.Tx) error {
			a, b := tx.Load64(arr+i), tx.Load64(arr+j)
			tx.Store64(arr+i, b)
			tx.Store64(arr+j, a)
			return nil
		}); err != nil {
			tb.Fatal(err)
		}
		if n%4 == 3 {
			if err := h.Read(func(tx ptm.Tx) error { tx.Load64(arr + i); return nil }); err != nil {
				tb.Fatal(err)
			}
		}
	}
}

// newPutMap creates a 256-bucket ByteMap and resets the device's statistics.
func newPutMap(tb testing.TB, e Engine) *pstruct.ByteMap {
	tb.Helper()
	var m *pstruct.ByteMap
	if err := e.Update(func(tx ptm.Tx) error {
		var err error
		m, err = pstruct.NewByteMap(tx, 0, 256)
		return err
	}); err != nil {
		tb.Fatal(err)
	}
	e.Device().ResetStats()
	return m
}

// perTx returns fences and pwbs per committed update since the last reset.
func perTx(d *pmem.Device, updates int) (fences, pwbs float64) {
	s := d.Stats()
	return float64(s.Pfences+s.Psyncs) / float64(updates), float64(s.Pwbs) / float64(updates)
}

// TestWorkloadTraceGolden pins the full per-transaction trace of a
// fixed-seed swap run bit-for-bit. Any change to an engine's persistence
// protocol (pwb or fence counts, copy volume) or to the trace schema shows up
// as a diff here; regenerate deliberately with
//
//	go test ./internal/bench -run TraceGolden -update
func TestWorkloadTraceGolden(t *testing.T) {
	run := func() []byte {
		var trace bytes.Buffer
		for _, kind := range []string{"rom", "romlog", "mne", "pmdk"} {
			e, err := NewEngine(kind, 1<<21, pmem.Model{})
			if err != nil {
				t.Fatal(err)
			}
			arr := newSwapArray(t, e)
			ring := obs.NewRingSink(4096)
			e.(obs.Traceable).SetTrace(ring)
			runSwaps(t, e, arr, 24, 7)
			e.(obs.Traceable).SetTrace(nil)
			if err := ring.WriteJSON(&trace); err != nil {
				t.Fatal(err)
			}
		}
		return trace.Bytes()
	}
	got := run()
	golden := filepath.Join("testdata", "trace_swaps.golden")
	if *updateGolden {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("trace diverges from %s at line %d:\ngot  %s\nwant %s", golden, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("trace length differs from %s: got %d lines, want %d", golden, len(gl), len(wl))
	}
	// The same run must also be bit-for-bit repeatable within a process.
	if !bytes.Equal(run(), got) {
		t.Fatal("two identical runs produced different traces")
	}
}

// costsPerTx is Table 1 as exact numbers: {fences, pwbs} per transaction for
// {swap, put}. The Romulus variants and the Mnemosyne-style redo log fence
// four times per update whatever its size; the undo log fences per logged
// range. A swap's two words usually sit on two lines; 16 of the 64 puts
// insert, the rest overwrite.
var costsPerTx = map[string][2][2]float64{
	"rom":    {{4, 5.96875}, {4, 9.5}},
	"romlog": {{4, 5.96875}, {4, 9.5}},
	"romlr":  {{4, 5.96875}, {4, 9.5}},
	"mne":    {{4, 7}, {4, 36}},
	"pmdk":   {{6, 7}, {11.5, 20.625}},
}

const workloadOps = 64

// runWorkload commits workloadOps transactions of the named workload on a
// fresh engine of the given kind and returns its fences and pwbs per
// transaction. "swaps" is runSwaps from seed 1; "map" puts a 100-byte value
// under 16 keys in turn. With aud set, the durability auditor watches the run
// and the test fails on any violation.
func runWorkload(t *testing.T, kind, workload string, aud bool) [2]float64 {
	t.Helper()
	e, err := NewEngine(kind, 1<<21, pmem.ModelDRAM)
	if err != nil {
		t.Fatal(err)
	}
	var a *audit.Auditor
	if aud {
		a = audit.New(e.Device(), audit.Options{})
		a.Attach()
		if sa, ok := e.(interface{ SetAuditor(ptm.Auditor) }); ok {
			sa.SetAuditor(a)
		}
	}
	switch workload {
	case "swaps":
		arr := newSwapArray(t, e)
		runSwaps(t, e, arr, workloadOps, 1)
	case "map":
		m := newPutMap(t, e)
		val := bytes.Repeat([]byte{0xA5}, 100)
		for n := 0; n < workloadOps; n++ {
			k := dbKey(n % 16)
			if err := e.Update(func(tx ptm.Tx) error { _, err := m.Put(tx, k, val); return err }); err != nil {
				t.Fatal(err)
			}
		}
	default:
		t.Fatalf("unknown workload %q", workload)
	}
	if a != nil && a.ViolationCount() > 0 {
		t.Fatalf("auditor found %d durability violation(s): %+v", a.ViolationCount(), a.Violations()[0])
	}
	var got [2]float64
	got[0], got[1] = perTx(e.Device(), workloadOps)
	return got
}

// Every engine commits a swap with exactly its Table 1 fences and pwbs.
func TestRunWorkloadSwapsMetrics(t *testing.T) {
	for _, kind := range EngineKinds {
		if got, want := runWorkload(t, kind, "swaps", false), costsPerTx[kind][0]; got != want {
			t.Errorf("%s: fences, pwbs per swap = %v, want %v", kind, got, want)
		}
	}
}

// Every engine commits a 100-byte map put with exactly its pinned fences and
// pwbs.
func TestRunWorkloadMap(t *testing.T) {
	for _, kind := range EngineKinds {
		if got, want := runWorkload(t, kind, "map", false), costsPerTx[kind][1]; got != want {
			t.Errorf("%s: fences, pwbs per put = %v, want %v", kind, got, want)
		}
	}
}

// Under the durability auditor every engine commits both workloads with no
// violation and with the unaudited counts: the auditor observes, it must not
// change the protocol.
func TestRunWorkloadAudited(t *testing.T) {
	for _, kind := range EngineKinds {
		for i, w := range []string{"swaps", "map"} {
			if got, want := runWorkload(t, kind, w, true), costsPerTx[kind][i]; got != want {
				t.Errorf("%s %s audited: fences, pwbs per tx = %v, want %v", kind, w, got, want)
			}
		}
	}
}

// BenchmarkLogSwap commits one two-word swap per transaction on every engine.
func BenchmarkLogSwap(b *testing.B) {
	for _, kind := range EngineKinds {
		b.Run(kind, func(b *testing.B) {
			e, err := NewEngine(kind, 1<<21, pmem.ModelDRAM)
			if err != nil {
				b.Fatal(err)
			}
			arr := newSwapArray(b, e)
			b.ResetTimer()
			runSwaps(b, e, arr, b.N, 1)
			reportPerTx(b, e.Device())
		})
	}
}

// BenchmarkRawSwap persists the same two words with no transaction: two
// stores, a write-back of each line and one fence.
func BenchmarkRawSwap(b *testing.B) {
	d := pmem.New(swapArrayLen*8, pmem.ModelDRAM)
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		i, j := rng.Intn(swapArrayLen)*8, rng.Intn(swapArrayLen)*8
		a, v := d.Load64(i), d.Load64(j)
		d.Store64(i, v)
		d.Store64(j, a)
		d.Pwb(i)
		d.Pwb(j)
		d.Psync()
	}
	reportPerTx(b, d)
}

// BenchmarkLogPut overwrites 100-byte values of a ByteMap, one put per
// transaction, on every engine.
func BenchmarkLogPut(b *testing.B) {
	for _, kind := range EngineKinds {
		b.Run(kind, func(b *testing.B) {
			e, err := NewEngine(kind, 1<<21, pmem.ModelDRAM)
			if err != nil {
				b.Fatal(err)
			}
			m := newPutMap(b, e)
			val := make([]byte, 100)
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				k := dbKey(n % 256)
				if err := e.Update(func(tx ptm.Tx) error { _, err := m.Put(tx, k, val); return err }); err != nil {
					b.Fatal(err)
				}
			}
			reportPerTx(b, e.Device())
		})
	}
}

// BenchmarkRawPut persists the same 100 value bytes with no transaction and
// no index: a store, a write-back of its lines and one fence.
func BenchmarkRawPut(b *testing.B) {
	d := pmem.New(256*128, pmem.ModelDRAM)
	val := make([]byte, 100)
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		off := (n % 256) * 128
		d.StoreBytes(off, val)
		d.PwbRange(off, len(val))
		d.Psync()
	}
	reportPerTx(b, d)
}

func reportPerTx(b *testing.B, d *pmem.Device) {
	b.StopTimer()
	fences, pwbs := perTx(d, b.N)
	b.ReportMetric(fences, "fences/tx")
	b.ReportMetric(pwbs, "pwbs/tx")
}
