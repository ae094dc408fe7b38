package pynamic

import (
	"context"
	"testing"

	"repro/internal/experiments"
	"repro/internal/report"
)

// TestTableIShapeFullScale is the headline reproduction test: at the
// paper's full 495-DSO configuration, all Table I and Table II shape
// claims must hold. Takes ~10s of host time; skipped under -short.
func TestTableIShapeFullScale(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale reproduction skipped in -short mode")
	}
	r, err := freshEngine(t).TableICtx(context.Background(), ExperimentOptions{ScaleDiv: 1})
	if err != nil {
		t.Fatal(err)
	}
	checks := append(r.ChecksTableI(), r.ChecksTableII()...)
	for _, c := range checks {
		if !c.Pass {
			t.Errorf("shape check failed: %s (got %s)", c.Name, c.Got)
		}
	}
	t.Logf("\n%s\n%s", r.RenderTableI(), r.RenderTableII())
}

// TestTableICoreShapeScaled verifies the scale-robust orderings at a
// reduced configuration (fast enough for -short).
func TestTableICoreShapeScaled(t *testing.T) {
	r, err := freshEngine(t).TableICtx(context.Background(), ExperimentOptions{ScaleDiv: 10})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range r.CoreChecks() {
		if !c.Pass {
			t.Errorf("core shape check failed: %s (got %s)", c.Name, c.Got)
		}
	}
}

// TestTableICoreShapeDetailedBackend runs the same orderings under the
// line-accurate cache model.
func TestTableICoreShapeDetailedBackend(t *testing.T) {
	r, err := freshEngine(t).TableICtx(context.Background(), ExperimentOptions{ScaleDiv: 25, Backend: Detailed})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range r.CoreChecks() {
		if !c.Pass {
			t.Errorf("detailed-backend check failed: %s (got %s)", c.Name, c.Got)
		}
	}
}

// TestTableIIISizes checks the generated full-scale workload lands
// within 20% of the paper's Pynamic column on every section class.
func TestTableIIISizes(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale generation skipped in -short mode")
	}
	r, err := freshEngine(t).TableIIICtx(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range r.Checks() {
		if !c.Pass {
			t.Errorf("size check failed: %s (got %s)", c.Name, c.Got)
		}
	}
	t.Logf("\n%s", r.Render())
}

// TestTableIVShape checks the tool-startup reproduction: warm ~2x
// faster than cold, Pynamic tracking the real app, phase 2 cache-
// insensitive.
func TestTableIVShape(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale tool startup skipped in -short mode")
	}
	r, err := freshEngine(t).TableIVCtx(context.Background(), ExperimentOptions{Tasks: 32})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range r.Checks() {
		if !c.Pass {
			t.Errorf("Table IV check failed: %s (got %s)", c.Name, c.Got)
		}
	}
	t.Logf("\n%s", r.Render())
}

// TestCostModel checks the §II.B.3 closed form exactly.
func TestCostModel(t *testing.T) {
	r := freshEngine(t).CostModel()
	for _, c := range r.Checks() {
		if !c.Pass {
			t.Errorf("cost model check failed: %s (got %s)", c.Name, c.Got)
		}
	}
	if r.WithB != 5000 {
		t.Fatalf("paper example = %vs, want 5000s (~83 min)", r.WithB)
	}
}

// experimentAggs runs one registered experiment over grid on a fresh
// engine and returns its aggregates in grid order.
func experimentAggs(t *testing.T, name string, grid []Params) []Aggregate {
	t.Helper()
	res, err := freshEngine(t).RunExperimentCtx(context.Background(), name,
		ExperimentSpec{Grid: grid})
	if err != nil {
		t.Fatal(err)
	}
	return res.Aggregates
}

// TestNFSSweepShape checks the S3 collective-open story.
func TestNFSSweepShape(t *testing.T) {
	r := experiments.NFSSweepResultFrom(
		experimentAggs(t, "nfs", experiments.NFSGrid([]int{4, 32, 128}, 25)))
	for _, c := range r.Checks() {
		if !c.Pass {
			t.Errorf("NFS sweep check failed: %s (got %s)", c.Name, c.Got)
		}
	}
}

// TestSweepDLLCountMonotone checks S1: import cost grows with DSO
// count, superlinearly (scope-depth compounding).
func TestSweepDLLCountMonotone(t *testing.T) {
	r := experiments.SweepDLLCountResult(Vanilla,
		experimentAggs(t, "dllcount", experiments.DLLCountGrid([]int{8, 32, 128}, Vanilla)))
	p := r.Points
	if !(p[0].ImportSec < p[1].ImportSec && p[1].ImportSec < p[2].ImportSec) {
		t.Fatalf("import time not increasing: %+v", p)
	}
	// Superlinear: 16x the DSOs should cost more than 16x the time.
	growth := p[2].ImportSec / p[0].ImportSec
	if growth < 16 {
		t.Errorf("import growth %.1fx over 16x DSOs; expected superlinear", growth)
	}
}

// TestSweepDLLSizeMonotone checks S2: bigger DSOs cost more.
func TestSweepDLLSizeMonotone(t *testing.T) {
	r := experiments.SweepDLLSizeResult(Vanilla,
		experimentAggs(t, "dllsize", experiments.DLLSizeGrid([]int{100, 400}, Vanilla)))
	if r.Points[0].TotalSec >= r.Points[1].TotalSec {
		t.Fatalf("total time not increasing with DLL size: %+v", r.Points)
	}
}

// TestAblationBinding checks A1: lazy binding moves cost to visit.
func TestAblationBinding(t *testing.T) {
	s := experimentAggs(t, "ablate-binding", []Params{{"scale_div": 10}})[0].Stats
	lazy, eager := s["lazy_visit_sec"].Mean, s["eager_visit_sec"].Mean
	if lazy <= eager {
		t.Fatalf("lazy visit (%.2fs) not slower than eager visit (%.2fs)", lazy, eager)
	}
	if s["lazy_resolutions"].Mean == 0 {
		t.Fatal("no lazy resolutions recorded")
	}
}

// TestAblationCoverage checks A2: less coverage, fewer functions, less
// visit time.
func TestAblationCoverage(t *testing.T) {
	pts := experiments.CoveragePointsFrom(experimentAggs(t, "ablate-coverage",
		experiments.CoverageGrid([]float64{0.25, 1.0}, 10)))
	if pts[0].FuncsVisited >= pts[1].FuncsVisited {
		t.Fatalf("coverage 0.25 visited %d funcs, full visited %d",
			pts[0].FuncsVisited, pts[1].FuncsVisited)
	}
	if pts[0].VisitSec >= pts[1].VisitSec {
		t.Fatalf("coverage 0.25 visit %.3fs not below full %.3fs",
			pts[0].VisitSec, pts[1].VisitSec)
	}
}

// TestAblationASLR checks A3: heterogeneous link maps destroy parse
// sharing.
func TestAblationASLR(t *testing.T) {
	s := experimentAggs(t, "ablate-aslr", []Params{{"tasks": 32, "scale_div": 10}})[0].Stats
	homo, hetero := s["homogeneous_phase1_sec"].Mean, s["heterogeneous_phase1_sec"].Mean
	if hetero <= homo {
		t.Fatalf("heterogeneous phase 1 (%.1fs) not slower than homogeneous (%.1fs)",
			hetero, homo)
	}
}

// TestFacadeEndToEnd exercises the public API the way the quickstart
// example does.
func TestFacadeEndToEnd(t *testing.T) {
	ctx := context.Background()
	eng := freshEngine(t)
	cfg := LLNLModel().Scaled(50)
	cfg.Seed = 7
	w, err := eng.GenerateCtx(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	m, err := eng.RunCtx(ctx, RunConfig{Mode: Vanilla, Workload: w, NTasks: 8, RunMPITest: true})
	if err != nil {
		t.Fatal(err)
	}
	if m.ModulesImported != cfg.NumModules {
		t.Fatalf("imported %d modules, want %d", m.ModulesImported, cfg.NumModules)
	}
	if m.TotalSec() <= 0 || m.MPISec <= 0 {
		t.Fatalf("no simulated time: %+v", m)
	}
	if m.FuncsVisited == 0 {
		t.Fatal("no functions visited")
	}
}

// TestDeterministicMetrics: same seed, same simulated numbers.
func TestDeterministicMetrics(t *testing.T) {
	ctx := context.Background()
	run := func() *Metrics {
		eng := freshEngine(t)
		w, err := eng.GenerateCtx(ctx, LLNLModel().Scaled(50))
		if err != nil {
			t.Fatal(err)
		}
		m, err := eng.RunCtx(ctx, RunConfig{Mode: Link, Workload: w, NTasks: 8})
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	a, b := run(), run()
	if a.StartupSec != b.StartupSec || a.ImportSec != b.ImportSec ||
		a.VisitSec != b.VisitSec {
		t.Fatalf("non-deterministic: %+v vs %+v", a, b)
	}
	if a.Import != b.Import || a.Visit != b.Visit {
		t.Fatal("non-deterministic counters")
	}
}

var _ = report.AllPass // keep report linked for docs examples

// TestRunJobFacade exercises the public job-engine facade and the
// driver-facade contract: rank 0 of a homogeneous job reports exactly
// what RunCtx reports.
func TestRunJobFacade(t *testing.T) {
	ctx := context.Background()
	eng := freshEngine(t)
	w, err := eng.GenerateCtx(ctx, LLNLModel().Scaled(40).ScaledFuncs(10))
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.RunJobCtx(ctx, JobConfig{Mode: Link, Workload: w, NTasks: 8, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Ranks) != 8 {
		t.Fatalf("simulated %d ranks, want 8", len(res.Ranks))
	}
	m, err := eng.RunCtx(ctx, RunConfig{Mode: Link, Workload: w, NTasks: 8, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	r0 := res.Ranks[0]
	if r0.StartupSec != m.StartupSec || r0.ImportSec != m.ImportSec ||
		r0.VisitSec != m.VisitSec || r0.Loader != m.Loader {
		t.Fatalf("job rank 0 diverges from driver facade:\nrank0:  %+v\ndriver: %+v", r0, m)
	}
	if res.TotalSec() != m.TotalSec() {
		t.Fatalf("homogeneous job total %g != driver total %g", res.TotalSec(), m.TotalSec())
	}
}
