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

// TestFastPathEquivalenceUnderChurn drives the loader paths the driver
// never reaches — repeated cached dlopens of the SAME root (the memo
// replay branch), dlclose churn in between, and a mid-churn fresh
// dlopen that invalidates every closure memo — and requires the fast
// path to stay bit-identical to the baseline in loader stats, memory
// counters, and simulated seconds. The driver-level equivalence test
// covers each root's first cached open; this one covers the steady
// state and the invalidation edge.
func TestFastPathEquivalenceUnderChurn(t *testing.T) {
	cfg := pygen.LLNLModel().Scaled(120)
	cfg.AvgFuncsPerModule = 60
	cfg.AvgFuncsPerUtil = 60
	w, err := pygen.GenerateCtx(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	// An extra standalone image, not in any dependency closure, whose
	// mid-churn dlopen bumps the link-map generation.
	eb := elfimg.NewBuilder("libextra.so")
	eb.AddSymbol(elfimg.SymID(uint64(1)<<60+1), 64, 8, false)
	eb.AddFunc(elfimg.SymID(uint64(1)<<60+2), 64, 128, 90, 32, false)
	extra, err := eb.Build()
	if err != nil {
		t.Fatal(err)
	}

	type outcome struct {
		Stats    Stats
		Counters memsim.Counters
		Seconds  float64
	}
	run := func(noFast bool) outcome {
		t.Helper()
		mem := memsim.NewAnalytic(memsim.ZeusConfig())
		fs, err := fsim.New(fsim.Defaults(), 1)
		if err != nil {
			t.Fatal(err)
		}
		clock := simtime.NewClock(2.4e9)
		ld := New(mem, fs, clock, Options{Clients: 1, NoFastPath: noFast})
		for _, img := range w.AllImages() {
			ld.Install(img)
		}
		ld.Install(w.Exe)
		ld.Install(extra)
		if _, err := ld.StartupExecutable(w.Exe); err != nil {
			t.Fatal(err)
		}
		for round := 0; round < 4; round++ {
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
			if round == 1 {
				// Fresh load mid-churn: every memoized closure walk is
				// now stale and must rebuild, not replay.
				if _, err := ld.Dlopen(extra.Name, RTLDNow); err != nil {
					t.Fatal(err)
				}
			}
			for _, img := range w.Modules {
				if err := ld.Dlclose(ld.Lookup(img.Name)); err != nil {
					t.Fatal(err)
				}
			}
		}
		return outcome{Stats: ld.Stats(), Counters: mem.Counters(), Seconds: clock.Seconds()}
	}

	fast, slow := run(false), run(true)
	if !reflect.DeepEqual(fast, slow) {
		t.Fatalf("fast path diverges from baseline under churn:\nfast: %+v\nslow: %+v",
			fast, slow)
	}
}
