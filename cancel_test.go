package pynamic

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/fsim"
)

// budgetCtx is a deterministic cancellation source: it reports itself
// canceled after the first `budget` Err() probes. Because every
// internal cancellation checkpoint reads ctx.Err(), this cancels
// operations mid-flight at an exact, reproducible probe — no timers,
// no goroutine races — which keeps the mid-generate/mid-job/mid-matrix
// tests meaningful under -race.
type budgetCtx struct {
	context.Context
	budget int64
}

func newBudgetCtx(budget int64) *budgetCtx {
	return &budgetCtx{Context: context.Background(), budget: budget}
}

func (c *budgetCtx) Err() error {
	if atomic.AddInt64(&c.budget, -1) < 0 {
		return context.Canceled
	}
	return nil
}

// assertCanceled requires err to wrap ErrCanceled and to be a
// structured *Error naming op.
func assertCanceled(t *testing.T, err error, op string) {
	t.Helper()
	if err == nil {
		t.Fatalf("%s: expected cancellation, got nil error", op)
	}
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("%s: error does not wrap ErrCanceled: %v", op, err)
	}
	var pe *Error
	if !errors.As(err, &pe) {
		t.Fatalf("%s: error is not a *pynamic.Error: %v", op, err)
	}
	if pe.Op != op {
		t.Fatalf("Op = %q, want %q (err: %v)", pe.Op, op, err)
	}
}

// TestCancelMidGenerate cancels generation partway through the per-DSO
// loop.
func TestCancelMidGenerate(t *testing.T) {
	eng := freshEngine(t)
	cfg := LLNLModel().Scaled(20).ScaledFuncs(20)
	// Enough budget to enter the generation loops, far less than the
	// ~36 per-DSO probes the config needs.
	_, err := eng.GenerateCtx(newBudgetCtx(5), cfg)
	assertCanceled(t, err, "Generate")
	if s := eng.WorkloadCacheStats(); s.Entries != 0 {
		t.Fatalf("canceled generation left a cache entry: %+v", s)
	}
	// The same engine must recover: a live context generates cleanly.
	if _, err := eng.GenerateCtx(context.Background(), cfg); err != nil {
		t.Fatalf("generate after canceled generate: %v", err)
	}
}

// TestCancelMidJob cancels a multi-rank job inside the rank pipeline.
func TestCancelMidJob(t *testing.T) {
	eng := freshEngine(t)
	w, err := eng.GenerateCtx(context.Background(), LLNLModel().Scaled(40).ScaledFuncs(10))
	if err != nil {
		t.Fatal(err)
	}
	// Rank skew makes each of the 8 ranks its own rank class, so all 8
	// pipelines run. Budget past config validation and into the
	// pipelines: each rank probes at 3 phase boundaries plus the module
	// loops.
	jc := JobConfig{Mode: Link, Workload: w, NTasks: 8, Ranks: 8, Seed: 42, RankSkew: 0.3}
	_, err = eng.RunJobCtx(newBudgetCtx(10), jc)
	assertCanceled(t, err, "RunJob")

	// A homogeneous job is one rank class: one pipeline stands for all
	// 8 ranks, so the budget must land inside that one pipeline.
	homog := JobConfig{Mode: Link, Workload: w, NTasks: 8, Ranks: 8, Seed: 42}
	_, err = eng.RunJobCtx(newBudgetCtx(3), homog)
	assertCanceled(t, err, "RunJob")
	if !strings.Contains(err.Error(), " phase: ") {
		t.Fatalf("homogeneous job not canceled inside its pipeline: %v", err)
	}

	// Pre-canceled real context: same sentinel, immediately.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err = eng.RunJobCtx(ctx, jc)
	assertCanceled(t, err, "RunJob")

	// And the job still runs to completion on a live context.
	if _, err := eng.RunJobCtx(context.Background(), jc); err != nil {
		t.Fatalf("job after canceled job: %v", err)
	}
}

// TestCancelMidRun covers the legacy-shaped RunCtx path.
func TestCancelMidRun(t *testing.T) {
	eng := freshEngine(t)
	w, err := eng.GenerateCtx(context.Background(), LLNLModel().Scaled(40).ScaledFuncs(10))
	if err != nil {
		t.Fatal(err)
	}
	_, err = eng.RunCtx(newBudgetCtx(3), RunConfig{Mode: Vanilla, Workload: w, NTasks: 8})
	assertCanceled(t, err, "Run")
}

// TestCancelMidMatrix cancels an experiment matrix once some cells have
// completed: the partial result must carry the completed cells and the
// Canceled mark alongside ErrCanceled.
func TestCancelMidMatrix(t *testing.T) {
	eng := freshEngine(t)
	// Single worker for a deterministic probe sequence; the budget lets
	// the first cells finish and cuts the matrix off mid-flight.
	res, err := eng.RunMatrixCtx(newBudgetCtx(400), MatrixSpec{
		Experiments: []string{"dllcount"},
		Repeats:     1,
		Seed:        42,
		Workers:     1,
	})
	assertCanceled(t, err, "RunMatrix")
	if res == nil {
		t.Fatal("canceled matrix returned no partial result")
	}
	if !res.Canceled {
		t.Fatal("partial result not marked Canceled")
	}
	total := 0
	for _, er := range res.Experiments {
		total += len(er.Cells)
		for _, c := range er.Cells {
			if c.Metrics == nil {
				t.Fatalf("partial result carries an unexecuted cell: %+v", c)
			}
		}
	}
	if total != res.ExecutedCells {
		t.Fatalf("partial result has %d cells, executed %d", total, res.ExecutedCells)
	}
	if full := 10; total >= full {
		t.Fatalf("cancellation did not abandon the matrix: %d of %d cells ran", total, full)
	}
}

// TestCancelMidToolAttach cancels a tool attach inside the phase-1
// ingest loop.
func TestCancelMidToolAttach(t *testing.T) {
	eng := freshEngine(t)
	w, err := eng.GenerateCtx(context.Background(), LLNLModel().Scaled(40).ScaledFuncs(10))
	if err != nil {
		t.Fatal(err)
	}
	fs, err := fsim.New(fsim.Defaults(), 2)
	if err != nil {
		t.Fatal(err)
	}
	_, err = eng.ToolAttachCtx(newBudgetCtx(3), ToolStartupConfig{Workload: w, Tasks: 8, FS: fs})
	if err == nil || !errors.Is(err, ErrCanceled) {
		t.Fatalf("expected ErrCanceled, got %v", err)
	}
}

// TestCancelMidScenario cancels a full-scale catalog scenario cell
// inside its workload generation: scenario cells run under the
// matrix's context, so the cell stops instead of running to
// completion.
func TestCancelMidScenario(t *testing.T) {
	res, err := freshEngine(t).RunExperimentCtx(newBudgetCtx(3), "scenario:startup-storm",
		ExperimentSpec{
			Grid:    []Params{{"scale_div": 1, "funcs_div": 1, "tasks": 32}},
			Workers: 1,
		})
	assertCanceled(t, err, "RunMatrix")
	if res == nil || len(res.Cells) != 0 {
		t.Fatalf("canceled scenario cell completed: %+v", res)
	}
}

// TestCancelStoreManifestReload cancels a workload that a second engine
// rebuilds from the manifest another engine stored: the reload
// regenerates under the caller's context.
func TestCancelStoreManifestReload(t *testing.T) {
	dir := t.TempDir()
	cfg := LLNLModel().Scaled(10)
	if _, err := freshEngine(t, WithCacheDir(dir)).GenerateCtx(context.Background(), cfg); err != nil {
		t.Fatal(err)
	}
	b := freshEngine(t, WithCacheDir(dir))
	_, err := b.GenerateCtx(newBudgetCtx(2), cfg)
	assertCanceled(t, err, "Generate")
	if hits := b.Stats().StoreWorkloadHits; hits != 0 {
		t.Fatalf("canceled reload counted %d store workload hits", hits)
	}
	// The same engine must recover: a live context reloads the manifest.
	if _, err := b.GenerateCtx(context.Background(), cfg); err != nil {
		t.Fatalf("reload after canceled reload: %v", err)
	}
	if hits := b.Stats().StoreWorkloadHits; hits != 1 {
		t.Fatalf("store workload hits = %d, want 1", hits)
	}
}

// TestSentinelErrors covers the non-cancellation sentinels.
func TestSentinelErrors(t *testing.T) {
	// Bad option.
	if _, err := New(WithWorkloadCacheSize(-1)); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("negative cache size: %v", err)
	}
	// Bad generator config.
	eng := freshEngine(t)
	bad := LLNLModel()
	bad.NumModules = 0
	if _, err := eng.GenerateCtx(context.Background(), bad); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("bad generator config: %v", err)
	}
	// Missing workload.
	if _, err := eng.RunCtx(context.Background(), RunConfig{Mode: Vanilla}); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("missing workload: %v", err)
	}
	// Unknown experiment, through both entry points.
	if _, err := eng.RunExperimentCtx(context.Background(), "nope", ExperimentSpec{}); !errors.Is(err, ErrUnknownExperiment) {
		t.Fatalf("unknown experiment: %v", err)
	}
	_, err := eng.RunMatrixCtx(context.Background(), MatrixSpec{Experiments: []string{"dllcount", "nope"}})
	if !errors.Is(err, ErrUnknownExperiment) {
		t.Fatalf("unknown experiment in matrix: %v", err)
	}
	var pe *Error
	if !errors.As(err, &pe) || pe.Op != "RunMatrix" || pe.Stage != "config" {
		t.Fatalf("structured error: %+v", pe)
	}
}
