package dynld

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"repro/internal/elfimg"
	"repro/internal/fsim"
	"repro/internal/memsim"
	"repro/internal/pygen"
	"repro/internal/simtime"
)

// sharedIndexFor replays the canonical rank load order for workload w:
// executable first, then (prelinked) the whole link line, then each
// module import.
func sharedIndexFor(t *testing.T, w *pygen.Workload, prelinked bool) *SharedIndex {
	t.Helper()
	b := NewIndexBuilder(append(w.AllImages(), w.Exe)...)
	if err := b.Load(w.Exe.Name); err != nil {
		t.Fatal(err)
	}
	if prelinked {
		if err := b.Load(w.Sonames()...); err != nil {
			t.Fatal(err)
		}
	}
	for _, img := range w.Modules {
		if err := b.Load(img.Name); err != nil {
			t.Fatal(err)
		}
	}
	return b.Index()
}

// TestSharedIndexEquivalence is the contract behind index sharing: a
// loader resolving against the shared read-only index must produce
// bit-identical simulated results — loader stats, memory counters,
// clock seconds — to a loader building its own definition map, across
// both the vanilla (fresh dlopen) and prelinked (cached dlopen)
// sequences, including full PLT resolution.
func TestSharedIndexEquivalence(t *testing.T) {
	cfg := pygen.LLNLModel().Scaled(60)
	cfg.AvgFuncsPerModule = 80
	cfg.AvgFuncsPerUtil = 80
	w, err := pygen.GenerateCtx(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	type outcome struct {
		Stats    Stats
		Counters memsim.Counters
		Seconds  float64
		Objects  int
	}
	run := func(shared *SharedIndex, prelinked bool) outcome {
		t.Helper()
		mem := memsim.NewAnalytic(memsim.ZeusConfig())
		fs, err := fsim.New(fsim.Defaults(), 1)
		if err != nil {
			t.Fatal(err)
		}
		clock := simtime.NewClock(2.4e9)
		ld := New(mem, fs, clock, Options{Clients: 1, Shared: shared})
		for _, img := range w.AllImages() {
			ld.Install(img)
		}
		ld.Install(w.Exe)
		if _, err := ld.StartupExecutable(w.Exe); err != nil {
			t.Fatal(err)
		}
		if prelinked {
			if err := ld.StartupPrelinked(w.Sonames()); err != nil {
				t.Fatal(err)
			}
		}
		for _, img := range w.Modules {
			le, err := ld.Dlopen(img.Name, RTLDNow)
			if err != nil {
				t.Fatal(err)
			}
			for _, ri := range le.Image.PLTRelocs() {
				if _, _, err := ld.ResolvePLTFunc(le, ri); err != nil {
					t.Fatal(err)
				}
			}
		}
		return outcome{
			Stats:    ld.Stats(),
			Counters: mem.Counters(),
			Seconds:  clock.Seconds(),
			Objects:  len(ld.LinkMap()),
		}
	}
	for _, prelinked := range []bool{false, true} {
		idx := sharedIndexFor(t, w, prelinked)
		with, without := run(idx, prelinked), run(nil, prelinked)
		if !reflect.DeepEqual(with, without) {
			t.Fatalf("prelinked=%v: shared-index results diverge:\nshared: %+v\nlocal:  %+v",
				prelinked, with, without)
		}
		if idx.Objects() != with.Objects {
			t.Fatalf("prelinked=%v: index covers %d objects, loader mapped %d",
				prelinked, idx.Objects(), with.Objects)
		}
		if idx.Symbols() == 0 {
			t.Fatal("index resolved no symbols")
		}
	}
}

// TestSharedIndexConcurrentLoaders: many loaders resolving against ONE
// index concurrently (the job engine's steady state) must all match the
// single-loader outcome. Run under -race this also proves the index is
// read-only in practice.
func TestSharedIndexConcurrentLoaders(t *testing.T) {
	cfg := pygen.LLNLModel().Scaled(120)
	cfg.AvgFuncsPerModule = 40
	cfg.AvgFuncsPerUtil = 40
	w, err := pygen.GenerateCtx(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	idx := sharedIndexFor(t, w, false)
	run := func(shared *SharedIndex) Stats {
		mem := memsim.NewAnalytic(memsim.ZeusConfig())
		fs, err := fsim.New(fsim.Defaults(), 1)
		if err != nil {
			t.Error(err)
			return Stats{}
		}
		ld := New(mem, fs, simtime.NewClock(2.4e9), Options{Clients: 1, Shared: shared})
		for _, img := range w.AllImages() {
			ld.Install(img)
		}
		ld.Install(w.Exe)
		if _, err := ld.StartupExecutable(w.Exe); err != nil {
			t.Error(err)
			return Stats{}
		}
		for _, img := range w.Modules {
			if _, err := ld.Dlopen(img.Name, RTLDNow); err != nil {
				t.Error(err)
				return Stats{}
			}
		}
		return ld.Stats()
	}
	want := run(nil)
	const ranks = 8
	got := make([]Stats, ranks)
	done := make(chan int, ranks)
	for r := 0; r < ranks; r++ {
		go func(r int) {
			got[r] = run(idx)
			done <- r
		}(r)
	}
	for i := 0; i < ranks; i++ {
		<-done
	}
	for r := 0; r < ranks; r++ {
		if got[r] != want {
			t.Fatalf("rank %d stats diverge: %+v vs %+v", r, got[r], want)
		}
	}
}

// TestIndexBuilderErrors: missing roots and missing dependencies fail
// the build the way the loader's own mapBFS would.
func TestIndexBuilderErrors(t *testing.T) {
	b := NewIndexBuilder()
	err := b.Load("libnope.so")
	var nf *NotFoundError
	if !errors.As(err, &nf) || nf.Soname != "libnope.so" {
		t.Fatalf("missing root: %v", err)
	}

	mb := elfimg.NewBuilder("libm.so")
	mb.AddSymbol(elfimg.SymID(1), 32, 8, false)
	mb.AddDep("libmissing.so")
	img, err := mb.Build()
	if err != nil {
		t.Fatal(err)
	}
	b2 := NewIndexBuilder(img)
	if err := b2.Load("libm.so"); err == nil ||
		!errors.As(err, &nf) || nf.Soname != "libmissing.so" {
		t.Fatalf("missing dep: %v", err)
	}
}

// TestNoFastPathDisablesSharedIndex: the NoFastPath baseline must
// exercise the full per-loader paths even when a shared index is
// configured.
func TestNoFastPathDisablesSharedIndex(t *testing.T) {
	mem := memsim.NewAnalytic(memsim.ZeusConfig())
	fs, err := fsim.New(fsim.Defaults(), 1)
	if err != nil {
		t.Fatal(err)
	}
	idx := NewIndexBuilder().Index()
	ld := New(mem, fs, simtime.NewClock(0), Options{NoFastPath: true, Shared: idx})
	if ld.opts.Shared != nil {
		t.Fatal("NoFastPath kept the shared index")
	}
}
