package toolsim

import (
	"context"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/fsim"
	"repro/internal/pygen"
)

func TestCostModelPaperExample(t *testing.T) {
	m := PaperExample()
	// ~500 x ~500 x (10ms + 10 x 1ms) = 5000 s ≈ 83 minutes.
	if got := m.TotalSeconds(); got != 5000 {
		t.Fatalf("TotalSeconds = %v, want 5000", got)
	}
	// "approximately doubles the already excessive ~41.5 minutes".
	if got := m.WithoutReinsertion(); got != 2500 {
		t.Fatalf("WithoutReinsertion = %v, want 2500", got)
	}
}

func TestCostModelClosedFormEqualsSimulation(t *testing.T) {
	// Property: the event-driven simulation agrees with the closed form
	// for arbitrary parameters.
	if err := quick.Check(func(m8, n8, b8 uint8, t1ms, t2ms uint16) bool {
		m := CostModel{
			Libraries:    int(m8%40) + 1,
			Tasks:        int(n8%40) + 1,
			EventTime:    float64(t1ms%100) * 1e-3,
			Breakpoints:  int(b8 % 8),
			ReinsertTime: float64(t2ms%10) * 1e-3,
		}
		return math.Abs(m.TotalSeconds()-m.SimulateEvents()) < 1e-6
	}, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func testWorkload(t testing.TB) *pygen.Workload {
	t.Helper()
	w, err := pygen.GenerateCtx(context.Background(), pygen.LLNLModel().Scaled(40).ScaledFuncs(4))
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func attachTwice(t *testing.T, cfg Config) (cold, warm Phases) {
	t.Helper()
	var err error
	if cold, err = AttachCtx(context.Background(), cfg); err != nil {
		t.Fatal(err)
	}
	if warm, err = AttachCtx(context.Background(), cfg); err != nil {
		t.Fatal(err)
	}
	return cold, warm
}

func TestAttachColdWarm(t *testing.T) {
	w := testWorkload(t)
	fs, err := fsim.New(fsim.Defaults(), 4)
	if err != nil {
		t.Fatal(err)
	}
	cold, warm := attachTwice(t, Config{Workload: w, Tasks: 32, FS: fs})
	if cold.Phase1 <= warm.Phase1 {
		t.Fatalf("cold phase1 %.2fs not slower than warm %.2fs", cold.Phase1, warm.Phase1)
	}
	// Phase 2 is event-bound: nearly identical cold vs warm (§IV.B).
	ratio := cold.Phase2 / warm.Phase2
	if ratio < 0.95 || ratio > 1.3 {
		t.Fatalf("phase2 cold/warm ratio %.2f, want ~1", ratio)
	}
	if cold.Total() != cold.Phase1+cold.Phase2 {
		t.Fatal("Total mismatch")
	}
}

func TestAttachScalesWithTasks(t *testing.T) {
	w := testWorkload(t)
	run := func(tasks int) Phases {
		fs, err := fsim.New(fsim.Defaults(), 64)
		if err != nil {
			t.Fatal(err)
		}
		ph, err := AttachCtx(context.Background(), Config{Workload: w, Tasks: tasks, FS: fs})
		if err != nil {
			t.Fatal(err)
		}
		return ph
	}
	small, big := run(8), run(256)
	// Phase 2 is M_dyn x N x T1: linear in task count.
	if big.Phase2 <= small.Phase2*16 {
		t.Fatalf("phase2 not linear in tasks: %v at 8 vs %v at 256",
			small.Phase2, big.Phase2)
	}
}

func TestHeterogeneousLinkMapsHurt(t *testing.T) {
	w := testWorkload(t)
	fs1, _ := fsim.New(fsim.Defaults(), 4)
	homo, err := AttachCtx(context.Background(), Config{Workload: w, Tasks: 32, FS: fs1})
	if err != nil {
		t.Fatal(err)
	}
	fs2, _ := fsim.New(fsim.Defaults(), 4)
	hetero, err := AttachCtx(context.Background(), Config{Workload: w, Tasks: 32, FS: fs2, HeterogeneousLinkMaps: true})
	if err != nil {
		t.Fatal(err)
	}
	if hetero.Phase1 <= homo.Phase1 {
		t.Fatalf("heterogeneous phase1 %.2fs not slower than homogeneous %.2fs",
			hetero.Phase1, homo.Phase1)
	}
}

func TestBreakpointsInflatePhase2(t *testing.T) {
	w := testWorkload(t)
	params := DefaultParams()
	fs1, _ := fsim.New(fsim.Defaults(), 4)
	without, err := AttachCtx(context.Background(), Config{Workload: w, Tasks: 32, FS: fs1, Params: params})
	if err != nil {
		t.Fatal(err)
	}
	params.Breakpoints = 10
	fs2, _ := fsim.New(fsim.Defaults(), 4)
	with, err := AttachCtx(context.Background(), Config{Workload: w, Tasks: 32, FS: fs2, Params: params})
	if err != nil {
		t.Fatal(err)
	}
	// B=10, T2=1ms vs T1=22ms: phase2 should grow by ~45%.
	ratio := with.Phase2 / without.Phase2
	if ratio < 1.2 || ratio > 1.8 {
		t.Fatalf("breakpoint inflation ratio %.2f, want ~1.45", ratio)
	}
}

func TestAttachErrors(t *testing.T) {
	if _, err := AttachCtx(context.Background(), Config{}); err == nil {
		t.Fatal("attach without workload succeeded")
	}
	w := testWorkload(t)
	if _, err := AttachCtx(context.Background(), Config{Workload: w, Tasks: 32}); err == nil {
		t.Fatal("attach without filesystem succeeded")
	}
	fs, _ := fsim.New(fsim.Defaults(), 4)
	if _, err := AttachCtx(context.Background(), Config{Workload: w, Tasks: 0, FS: fs}); err == nil {
		t.Fatal("attach with zero tasks succeeded")
	}
}

func TestDebugComplexitySlowsParse(t *testing.T) {
	cfg := pygen.LLNLModel().Scaled(40).ScaledFuncs(4)
	w1, err := pygen.GenerateCtx(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg2 := cfg
	cfg2.DebugComplexity = 3.0
	w2, err := pygen.GenerateCtx(context.Background(), cfg2)
	if err != nil {
		t.Fatal(err)
	}
	attach := func(w *pygen.Workload) Phases {
		fs, _ := fsim.New(fsim.Defaults(), 4)
		c := Config{Workload: w, Tasks: 32, FS: fs}
		if _, err := AttachCtx(context.Background(), c); err != nil { // cold
			t.Fatal(err)
		}
		warm, err := AttachCtx(context.Background(), c)
		if err != nil {
			t.Fatal(err)
		}
		return warm
	}
	if attach(w2).Phase1 <= attach(w1).Phase1 {
		t.Fatal("higher debug complexity did not slow warm phase 1")
	}
}
