package bench

import (
	"bytes"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/audit"
	"repro/internal/core"
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
	rng := rand.New(rand.NewSource(seed))
	for n := 0; n < ops; n++ {
		i := ptm.Ptr(rng.Intn(swapArrayLen) * 8)
		j := ptm.Ptr(rng.Intn(swapArrayLen) * 8)
		if err := e.Update(func(tx ptm.Tx) error {
			a, b := tx.Load64(arr+i), tx.Load64(arr+j)
			tx.Store64(arr+i, b)
			tx.Store64(arr+j, a)
			return nil
		}); err != nil {
			tb.Fatal(err)
		}
		if n%4 == 3 {
			if err := e.Read(func(tx ptm.Tx) error { tx.Load64(arr + i); return nil }); err != nil {
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

// deltaLog is an Engine whose Update and Read each write one line to w: the
// device work done inside the call — stores, bytes stored, pwbs, fences — and
// the bytes the engine reports having replicated between its twin copies.
type deltaLog struct {
	Engine
	w *bytes.Buffer
}

func (l deltaLog) Update(fn func(ptm.Tx) error) error { return l.log("update", l.Engine.Update, fn) }
func (l deltaLog) Read(fn func(ptm.Tx) error) error   { return l.log("read", l.Engine.Read, fn) }

func (l deltaLog) log(kind string, call func(func(ptm.Tx) error) error, fn func(ptm.Tx) error) error {
	d := l.Device()
	st, repl := d.Stats(), l.Stats().ReplicatedBytes
	err := call(fn)
	now := d.Stats()
	fmt.Fprintf(l.w, "%s %s stores=%d bytes=%d pwbs=%d fences=%d replicated=%d\n", l.Name(), kind,
		now.Stores-st.Stores, now.BytesStored-st.BytesStored, now.Pwbs-st.Pwbs,
		now.Pfences+now.Psyncs-st.Pfences-st.Psyncs, l.Stats().ReplicatedBytes-repl)
	return err
}

// TestWorkloadTraceGolden pins, for every Update and Read of a fixed-seed
// swap run on every engine, the device work done inside the call and the
// bytes replicated. Any change to an engine's persistence protocol (stores,
// pwb or fence counts, copy volume) shows up as a diff here; regenerate
// deliberately with
//
//	go test ./internal/bench -run TraceGolden -update
func TestWorkloadTraceGolden(t *testing.T) {
	run := func() []byte {
		var trace bytes.Buffer
		for _, kind := range EngineKinds {
			e, err := NewEngine(kind, 1<<21, pmem.Model{})
			if err != nil {
				t.Fatal(err)
			}
			runSwaps(t, deltaLog{e, &trace}, newSwapArray(t, e), 24, 7)
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
// insert, the rest overwrite a 100-byte value that starts on a line in its
// node, so it takes 2 lines.
var costsPerTx = map[string][2][2]float64{
	"rom":    {{4, 5.96875}, {4, 8.34375}},
	"romlog": {{4, 5.96875}, {4, 8.34375}},
	"romlr":  {{4, 5.96875}, {4, 8.34375}},
	"mne":    {{4, 7}, {4, 36.6875}},
	"pmdk":   {{6, 7}, {9.6875, 16.546875}},
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
		a = audit.New(e.Device())
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

// TestRunWorkloadSameSizePut pins what the sync_write SET costs at the
// engine: one goroutine on romlog overwrites a key's 64-byte value with
// another of the same size. The value fills one line of its node, so a put
// is state=MUT, that line, state=CPY and the line's back copy: 4 pwbs, 4
// fences, 64 replicated bytes and no allocation.
func TestRunWorkloadSameSizePut(t *testing.T) {
	e, err := core.New(1<<21, core.Config{Variant: core.RomLog, Model: pmem.ModelDRAM})
	if err != nil {
		t.Fatal(err)
	}
	m := newPutMap(t, e)
	put := func(n int, fill byte) {
		val := bytes.Repeat([]byte{fill}, 64)
		if err := e.Update(func(tx ptm.Tx) error { _, err := m.Put(tx, dbKey(n%16), val); return err }); err != nil {
			t.Fatal(err)
		}
	}
	for n := 0; n < 16; n++ {
		put(n, 1)
	}
	e.Device().ResetStats()
	stats, heap := e.Stats(), e.AllocStats()
	for n := 0; n < workloadOps; n++ {
		put(n, byte(n))
	}
	fences, pwbs := perTx(e.Device(), workloadOps)
	replicated := float64(e.Stats().ReplicatedBytes-stats.ReplicatedBytes) / workloadOps
	allocs := e.AllocStats().Allocs - heap.Allocs
	if fences != 4 || pwbs != 4 || replicated != 64 || allocs != 0 {
		t.Errorf("same-size 64-byte put: %v fences, %v pwbs, %v replicated bytes, %d allocations; want 4, 4, 64, 0",
			fences, pwbs, replicated, allocs)
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
