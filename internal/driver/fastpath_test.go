package driver

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/dynld"
	"repro/internal/pygen"
)

// TestFastPathEquivalence is the contract behind the dynld symbol-lookup
// fast path: for every build mode, a run with the memoized fast path
// must produce bit-identical simulated results — phase times, cache
// counters, loader stats, FS stats — to a run with the fast path
// disabled. Only host time may differ.
func TestFastPathEquivalence(t *testing.T) {
	cfg := pygen.LLNLModel().Scaled(60)
	cfg.AvgFuncsPerModule = 120
	cfg.AvgFuncsPerUtil = 120
	w, err := pygen.GenerateCtx(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []BuildMode{Vanilla, Link, LinkBind} {
		run := func(noFast bool) *Metrics {
			t.Helper()
			m, err := RunCtx(context.Background(), Config{
				Mode: mode, Workload: w, NTasks: 8, Seed: cfg.Seed,
				NoFastPath: noFast,
			})
			if err != nil {
				t.Fatalf("%v noFast=%v: %v", mode, noFast, err)
			}
			return m
		}
		fast, slow := run(false), run(true)
		// Kernel counters describe the host-side execution strategy, not
		// the simulation — they differ between the two paths by design.
		fast.Kernel, slow.Kernel = dynld.KernelStats{}, dynld.KernelStats{}
		if !reflect.DeepEqual(fast, slow) {
			t.Errorf("%v: fast-path results diverge from baseline:\nfast: %+v\nslow: %+v",
				mode, fast, slow)
		}
	}
}
