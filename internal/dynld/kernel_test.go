package dynld

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/elfimg"
	"repro/internal/fsim"
	"repro/internal/memsim"
	"repro/internal/pygen"
	"repro/internal/simtime"
)

// warmLinkLoader builds a Link-mode loader (everything prelinked, lazy
// PLT) over a mid-size workload, binds every jump slot, and warms every
// data slot, so callers start from the steady state the visit phase
// lives in.
func warmLinkLoader(t testing.TB, opts Options) (*Loader, *pygen.Workload) {
	t.Helper()
	cfg := pygen.LLNLModel().Scaled(120)
	cfg.AvgFuncsPerModule = 60
	cfg.AvgFuncsPerUtil = 60
	w, err := pygen.GenerateCtx(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	mem := memsim.NewAnalytic(memsim.ZeusConfig())
	fs, err := fsim.New(fsim.Defaults(), 1)
	if err != nil {
		t.Fatal(err)
	}
	clock := simtime.NewClock(2.4e9)
	if opts.Clients == 0 {
		opts.Clients = 1
	}
	ld := New(mem, fs, clock, opts)
	for _, img := range w.AllImages() {
		ld.Install(img)
	}
	ld.Install(w.Exe)
	if _, err := ld.StartupExecutable(w.Exe); err != nil {
		t.Fatal(err)
	}
	if err := ld.StartupPrelinked(w.Sonames()); err != nil {
		t.Fatal(err)
	}
	for _, le := range ld.LinkMap() {
		for ri, r := range le.Image.Relocs {
			switch r.Type {
			case elfimg.RelocJumpSlot:
				if _, _, err := ld.ResolvePLTFunc(le, ri); err != nil {
					t.Fatal(err)
				}
			case elfimg.RelocGOTData:
				if _, err := ld.ResolveData(le, ri); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	return ld, w
}

// TestSteadyStateResolutionAllocFree pins the zero-alloc contract of
// the simulation kernel's hottest loop: once a loader is warm, neither
// bound-PLT resolution nor data-slot resolution may allocate — the
// memo tables, flat symbol tables, and arena-backed scratch absorb
// every access.
func TestSteadyStateResolutionAllocFree(t *testing.T) {
	ld, _ := warmLinkLoader(t, Options{})
	type site struct {
		le *LinkEntry
		ri int
	}
	var plt, data []site
	for _, le := range ld.LinkMap() {
		for ri, r := range le.Image.Relocs {
			switch r.Type {
			case elfimg.RelocJumpSlot:
				plt = append(plt, site{le, ri})
			case elfimg.RelocGOTData:
				data = append(data, site{le, ri})
			}
		}
	}
	if len(plt) == 0 || len(data) == 0 {
		t.Fatalf("degenerate workload: %d PLT, %d data slots", len(plt), len(data))
	}
	avg := testing.AllocsPerRun(10, func() {
		for _, s := range plt {
			if _, _, err := ld.ResolvePLTFunc(s.le, s.ri); err != nil {
				t.Fatal(err)
			}
		}
		for _, s := range data {
			if _, err := ld.ResolveData(s.le, s.ri); err != nil {
				t.Fatal(err)
			}
		}
	})
	if avg != 0 {
		t.Fatalf("steady-state resolution allocates %.1f allocs/op over %d slots, want 0",
			avg, len(plt)+len(data))
	}
}

// TestLookupPathAllocFree pins the full symbol-search path — defSite
// through the flat table, lookupTraffic's scope walk, probeScope's
// aggregate probes, and the memoized avgChain — at zero allocations
// per lookup once the loader is warm.
func TestLookupPathAllocFree(t *testing.T) {
	ld, _ := warmLinkLoader(t, Options{})
	from := ld.LinkMap()[0]
	var ids []elfimg.SymID
	for _, le := range ld.LinkMap() {
		for _, r := range le.Image.Relocs {
			if r.Type == elfimg.RelocJumpSlot {
				ids = append(ids, r.Sym)
				break
			}
		}
	}
	if len(ids) < 2 {
		t.Fatalf("degenerate workload: %d referenced symbols", len(ids))
	}
	if avg := testing.AllocsPerRun(20, func() {
		for _, id := range ids {
			if _, err := ld.lookup(from, id); err != nil {
				t.Fatal(err)
			}
		}
	}); avg != 0 {
		t.Fatalf("lookup allocates %.1f allocs/op, want 0", avg)
	}
	if avg := testing.AllocsPerRun(100, func() {
		ld.probeScope(len(ld.LinkMap()), rejectCmpLines)
	}); avg != 0 {
		t.Fatalf("probeScope allocates %.1f allocs/op, want 0", avg)
	}
	if avg := testing.AllocsPerRun(100, func() {
		_ = ld.avgChain()
	}); avg != 0 {
		t.Fatalf("avgChain allocates %.1f allocs/op, want 0", avg)
	}
}

// TestBatchRelocationSteadyStateAllocFree pins the batched relocation
// kernel itself: re-processing a warm batch reuses the recycled slab
// arenas and allocates nothing (serial resolve; goroutine spawn on the
// parallel path inherently allocates and is covered by the determinism
// tests instead). Arena reuse must also be visible in the kernel
// counters.
func TestBatchRelocationSteadyStateAllocFree(t *testing.T) {
	ld, _ := warmLinkLoader(t, Options{})
	var fresh []*LinkEntry
	for _, le := range ld.LinkMap() {
		if le.Prelinked {
			fresh = append(fresh, le)
		}
	}
	if len(fresh) == 0 {
		t.Fatal("no prelinked entries")
	}
	if avg := testing.AllocsPerRun(5, func() {
		if err := ld.relocateAll(fresh, true); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Fatalf("steady-state batch relocation allocates %.1f allocs/op, want 0", avg)
	}
	k := ld.Kernel()
	if k.RelocsResolved == 0 {
		t.Error("kernel counters report no batched relocations")
	}
	if k.ArenaBytesReused == 0 {
		t.Error("kernel counters report no arena reuse across batches")
	}
	if k.ArenaBytesInUse == 0 {
		t.Error("kernel counters report no live arena bytes")
	}
}

// TestParallelResolveMatchesSerial is the direct loader-level form of
// the relocation-parallelism contract: an eager (BindNow) startup —
// one large relocation batch — must produce bit-identical stats,
// memory counters, and simulated seconds at every worker count, and
// the parallel path must actually engage when workers are asked for.
func TestParallelResolveMatchesSerial(t *testing.T) {
	// Scaled(40) at 120 funcs/object yields a ~670-slot startup batch —
	// comfortably past minParallelRelocs, so workers actually spawn.
	cfg := pygen.LLNLModel().Scaled(40)
	cfg.AvgFuncsPerModule = 120
	cfg.AvgFuncsPerUtil = 120
	w, err := pygen.GenerateCtx(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	type outcome struct {
		Stats    Stats
		Counters memsim.Counters
		Seconds  float64
	}
	run := func(workers int) (outcome, *Loader) {
		t.Helper()
		mem := memsim.NewAnalytic(memsim.ZeusConfig())
		fs, err := fsim.New(fsim.Defaults(), 1)
		if err != nil {
			t.Fatal(err)
		}
		clock := simtime.NewClock(2.4e9)
		ld := New(mem, fs, clock, Options{
			Clients: 1, BindNow: true, RelocWorkers: workers,
		})
		for _, img := range w.AllImages() {
			ld.Install(img)
		}
		ld.Install(w.Exe)
		if _, err := ld.StartupExecutable(w.Exe); err != nil {
			t.Fatal(err)
		}
		if err := ld.StartupPrelinked(w.Sonames()); err != nil {
			t.Fatal(err)
		}
		return outcome{Stats: ld.Stats(), Counters: mem.Counters(), Seconds: clock.Seconds()}, ld
	}
	want, _ := run(1)
	for _, workers := range []int{0, 2, 4, 8, 64} {
		got, ld := run(workers)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("RelocWorkers=%d diverges from serial:\ngot:  %+v\nwant: %+v",
				workers, got, want)
		}
		if workers > 1 && ld.Kernel().ParallelBatches == 0 {
			t.Errorf("RelocWorkers=%d: parallel resolve path never engaged", workers)
		}
	}
}
