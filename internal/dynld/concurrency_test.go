package dynld

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"repro/internal/fsim"
	"repro/internal/memsim"
	"repro/internal/pygen"
	"repro/internal/simtime"
)

// TestConcurrentLoadersSharedImages is the -race guard for the symbol
// fast path: the runner's worker pool executes many cells concurrently,
// and cells can share one generated workload, so N loaders must be able
// to load, resolve, and churn the SAME *elfimg.Image set from N
// goroutines without data races. Per-image indexes are immutable after
// Generate; all mutable fast-path state (reloc memos, closure memos,
// the definition index) is loader-local. Every goroutine must also end
// with stats identical to a reference run — scheduling must not leak
// into simulated results.
func TestConcurrentLoadersSharedImages(t *testing.T) {
	cfg := pygen.LLNLModel().Scaled(120)
	cfg.AvgFuncsPerModule = 60
	cfg.AvgFuncsPerUtil = 60
	w, err := pygen.GenerateCtx(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}

	oneRun := func() (Stats, error) {
		mem := memsim.NewAnalytic(memsim.ZeusConfig())
		fs, err := fsim.New(fsim.Defaults(), 2)
		if err != nil {
			return Stats{}, err
		}
		clock := simtime.NewClock(2.4e9)
		ld := New(mem, fs, clock, Options{Clients: 2})
		for _, img := range w.AllImages() {
			ld.Install(img)
		}
		ld.Install(w.Exe)
		if _, err := ld.StartupExecutable(w.Exe); err != nil {
			return Stats{}, err
		}
		// Churn: open every module eagerly, resolve every PLT slot of
		// every loaded object, re-open (cached, reverify walk), close.
		for round := 0; round < 2; round++ {
			for _, name := range w.Sonames() {
				le, err := ld.Dlopen(name, RTLDNow)
				if err != nil {
					return Stats{}, err
				}
				for _, ri := range le.Image.PLTRelocs() {
					if _, _, err := ld.ResolvePLTFunc(le, ri); err != nil {
						return Stats{}, err
					}
				}
			}
			for _, name := range w.Sonames() {
				if err := ld.Dlclose(ld.Lookup(name)); err != nil {
					return Stats{}, err
				}
			}
		}
		return ld.Stats(), nil
	}

	want, err := oneRun()
	if err != nil {
		t.Fatal(err)
	}

	const goroutines = 8
	var wg sync.WaitGroup
	stats := make([]Stats, goroutines)
	errs := make([]error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			stats[g], errs[g] = oneRun()
		}(g)
	}
	wg.Wait()
	for g := 0; g < goroutines; g++ {
		if errs[g] != nil {
			t.Fatalf("goroutine %d: %v", g, errs[g])
		}
		if !reflect.DeepEqual(stats[g], want) {
			t.Errorf("goroutine %d stats diverge:\ngot:  %+v\nwant: %+v", g, stats[g], want)
		}
	}
}
