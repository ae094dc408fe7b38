package driver

import (
	"context"
	"strings"
	"testing"

	"repro/internal/fsim"
	"repro/internal/pygen"
)

// testWorkload returns a small but structurally complete workload.
func testWorkload(t testing.TB) *pygen.Workload {
	t.Helper()
	cfg := pygen.LLNLModel().Scaled(40).ScaledFuncs(10)
	w, err := pygen.GenerateCtx(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestModeString(t *testing.T) {
	if Vanilla.String() != "Vanilla" || Link.String() != "Link" ||
		LinkBind.String() != "Link+Bind" {
		t.Fatal("mode strings wrong")
	}
	if BuildMode(9).String() != "invalid" {
		t.Fatal("invalid mode string")
	}
}

func TestRunRequiresWorkload(t *testing.T) {
	if _, err := RunCtx(context.Background(), Config{}); err == nil {
		t.Fatal("run without workload succeeded")
	}
}

func TestVanillaRun(t *testing.T) {
	w := testWorkload(t)
	m, err := RunCtx(context.Background(), Config{Mode: Vanilla, Workload: w, NTasks: 8, RunMPITest: true})
	if err != nil {
		t.Fatal(err)
	}
	if m.ModulesImported != len(w.Modules) {
		t.Fatalf("imported %d of %d modules", m.ModulesImported, len(w.Modules))
	}
	if m.StartupSec <= 0 || m.ImportSec <= 0 || m.VisitSec <= 0 {
		t.Fatalf("phase times: %+v", m)
	}
	if m.MPISec <= 0 {
		t.Fatal("MPI test did not run")
	}
	if m.TotalSec() != m.StartupSec+m.ImportSec+m.VisitSec {
		t.Fatal("TotalSec mismatch")
	}
	// Vanilla: every dlopen is fresh, no lazy binding.
	if m.Loader.CachedOpens != 0 || m.Loader.LazyResolutions != 0 {
		t.Fatalf("vanilla loader stats: %+v", m.Loader)
	}
	// Every generated function executes (plus per-call re-executions of
	// shared utility functions).
	if m.FuncsVisited < uint64(w.TotalFuncs())/2 {
		t.Fatalf("visited %d functions of %d generated", m.FuncsVisited, w.TotalFuncs())
	}
}

func TestLinkRunLazyBinds(t *testing.T) {
	w := testWorkload(t)
	m, err := RunCtx(context.Background(), Config{Mode: Link, Workload: w, NTasks: 8})
	if err != nil {
		t.Fatal(err)
	}
	if m.Loader.LazyResolutions == 0 {
		t.Fatal("Link build did no lazy resolutions")
	}
	if m.Loader.CachedOpens != uint64(len(w.Modules)) {
		t.Fatalf("cached opens = %d, want %d", m.Loader.CachedOpens, len(w.Modules))
	}
}

func TestLinkBindShiftsCostToStartup(t *testing.T) {
	w := testWorkload(t)
	link, err := RunCtx(context.Background(), Config{Mode: Link, Workload: w, NTasks: 8})
	if err != nil {
		t.Fatal(err)
	}
	bind, err := RunCtx(context.Background(), Config{Mode: LinkBind, Workload: w, NTasks: 8})
	if err != nil {
		t.Fatal(err)
	}
	if bind.StartupSec <= link.StartupSec {
		t.Fatal("LD_BIND_NOW did not increase startup time")
	}
	if bind.VisitSec >= link.VisitSec {
		t.Fatal("LD_BIND_NOW did not reduce visit time")
	}
	if bind.Loader.LazyResolutions != 0 {
		t.Fatal("LD_BIND_NOW left lazy resolutions")
	}
}

func TestDetailedBackend(t *testing.T) {
	w := testWorkload(t)
	m, err := RunCtx(context.Background(), Config{Mode: Vanilla, Backend: Detailed, Workload: w, NTasks: 8})
	if err != nil {
		t.Fatal(err)
	}
	if m.Import.L1DMissM <= 0 {
		t.Fatal("detailed backend recorded no misses")
	}
}

func TestCoveragePropagates(t *testing.T) {
	w := testWorkload(t)
	full, err := RunCtx(context.Background(), Config{Mode: Vanilla, Workload: w, NTasks: 8})
	if err != nil {
		t.Fatal(err)
	}
	half, err := RunCtx(context.Background(), Config{Mode: Vanilla, Workload: w, NTasks: 8, Coverage: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if half.FuncsVisited >= full.FuncsVisited {
		t.Fatalf("coverage 0.5 visited %d >= full %d", half.FuncsVisited, full.FuncsVisited)
	}
}

func TestWarmFSSpeedsStartup(t *testing.T) {
	w := testWorkload(t)
	fs, err := fsim.New(fsim.Defaults(), 1)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := RunCtx(context.Background(), Config{Mode: Link, Workload: w, NTasks: 1, SharedFS: fs})
	if err != nil {
		t.Fatal(err)
	}
	warm, err := RunCtx(context.Background(), Config{Mode: Link, Workload: w, NTasks: 1, SharedFS: fs, WarmFS: true})
	if err != nil {
		t.Fatal(err)
	}
	if warm.StartupSec >= cold.StartupSec {
		t.Fatalf("warm startup %.3fs not faster than cold %.3fs",
			warm.StartupSec, cold.StartupSec)
	}
}

func TestTooManyTasksRejected(t *testing.T) {
	w := testWorkload(t)
	_, err := RunCtx(context.Background(), Config{Mode: Vanilla, Workload: w, NTasks: 1 << 20})
	if err == nil || !strings.Contains(err.Error(), "exceed") {
		t.Fatalf("oversubscribed job accepted: %v", err)
	}
}

func TestASLRChangesNothingFunctional(t *testing.T) {
	w := testWorkload(t)
	m, err := RunCtx(context.Background(), Config{Mode: Vanilla, Workload: w, NTasks: 8, ASLR: true, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if m.ModulesImported != len(w.Modules) {
		t.Fatal("ASLR broke imports")
	}
}

func TestMissesAccumulateInPhases(t *testing.T) {
	w := testWorkload(t)
	m, err := RunCtx(context.Background(), Config{Mode: Vanilla, Workload: w, NTasks: 8})
	if err != nil {
		t.Fatal(err)
	}
	if m.Import.L1DMissM <= 0 {
		t.Fatal("import recorded no data misses")
	}
	if m.Visit.L1IMissM <= 0 {
		t.Fatal("visit recorded no instruction misses")
	}
	if m.Startup.InstrM <= 0 {
		t.Fatal("startup retired no instructions")
	}
}
