package experiments

import (
	"context"
	"strings"
	"testing"

	"repro/internal/driver"
	"repro/internal/pygen"
	"repro/internal/report"
	"repro/internal/runner"
)

func TestTableIReducedScale(t *testing.T) {
	r, err := RunTableICtx(context.Background(), Options{ScaleDiv: 40, Tasks: 8}, pygen.GenerateCtx)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 3 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	if r.Rows[0].Mode != driver.Vanilla || r.Rows[2].Mode != driver.LinkBind {
		t.Fatal("row order wrong")
	}
	out := r.RenderTableI()
	for _, want := range []string{"Vanilla", "Link+Bind", "152.8", "startup"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table I render missing %q:\n%s", want, out)
		}
	}
	out2 := r.RenderTableII()
	if !strings.Contains(out2, "6269.8") || !strings.Contains(out2, "visit L1-D") {
		t.Errorf("Table II render missing paper refs:\n%s", out2)
	}
	// Core checks must hold even at 1/40 scale.
	for _, c := range r.CoreChecks() {
		if !c.Pass {
			t.Errorf("core check failed at 1/40 scale: %s (%s)", c.Name, c.Got)
		}
	}
}

func TestTableIIIScaledDownGenerationIsCheap(t *testing.T) {
	// RunTableIIICtx always runs full scale; validate structure against
	// the paper references without asserting the ±20% band here (the
	// root test does that).
	if testing.Short() {
		t.Skip("full-scale generation in -short mode")
	}
	r, err := RunTableIIICtx(context.Background(), 0, pygen.GenerateCtx)
	if err != nil {
		t.Fatal(err)
	}
	if r.FuncCount < 800_000 {
		t.Fatalf("only %d functions generated", r.FuncCount)
	}
	out := r.Render()
	if !strings.Contains(out, "String Table") || !strings.Contains(out, "1100") {
		t.Errorf("render missing sections:\n%s", out)
	}
}

func TestTableIVReducedScale(t *testing.T) {
	r, err := RunTableIVCtx(context.Background(), Options{ScaleDiv: 20, Tasks: 32}, pygen.GenerateCtx)
	if err != nil {
		t.Fatal(err)
	}
	// Cold slower than warm for both models at any scale.
	if r.RealCold.Total() <= r.RealWarm.Total() {
		t.Fatal("real app: cold not slower than warm")
	}
	if r.PynamicCold.Total() <= r.PynamicWarm.Total() {
		t.Fatal("pynamic: cold not slower than warm")
	}
	out := r.Render()
	if !strings.Contains(out, "Cold Startup 1st phase") ||
		!strings.Contains(out, "6:39") {
		t.Errorf("Table IV render malformed:\n%s", out)
	}
}

func TestCostModelResult(t *testing.T) {
	r := RunCostModel()
	if !report.AllPass(r.Checks()) {
		t.Fatalf("cost model checks failed: %+v", r.Checks())
	}
	if !strings.Contains(r.Render(), "83:20") {
		t.Errorf("render missing 83:20:\n%s", r.Render())
	}
}

// aggregates runs one registered experiment over grid through the
// runner's pool and returns its aggregates in grid order.
func aggregates(t *testing.T, name string, grid []runner.Params) []runner.Aggregate {
	t.Helper()
	res, err := runner.RunMatrixCtx(context.Background(), RunnerRegistry(), runner.MatrixSpec{
		Experiments: []string{name},
		Grids:       map[string][]runner.Params{name: grid},
	})
	if err != nil {
		t.Fatal(err)
	}
	return res.Experiments[0].Aggregates
}

func TestSweepRenders(t *testing.T) {
	r := SweepDLLCountResult(driver.Vanilla,
		aggregates(t, "dllcount", DLLCountGrid([]int{4, 8}, driver.Vanilla)))
	if len(r.Points) != 2 || r.Points[0].X != 4 {
		t.Fatalf("points: %+v", r.Points)
	}
	if !strings.Contains(r.Render(), "DSOs") {
		t.Error("sweep render missing axis label")
	}

	r2 := SweepDLLSizeResult(driver.Link,
		aggregates(t, "dllsize", DLLSizeGrid([]int{50, 100}, driver.Link)))
	if len(r2.Points) != 2 {
		t.Fatalf("size sweep points: %+v", r2.Points)
	}

	r3 := NFSSweepResultFrom(aggregates(t, "nfs", NFSGrid([]int{2, 8}, 40)))
	if !strings.Contains(r3.Render(), "collective open") {
		t.Error("NFS sweep render malformed")
	}
}

func TestSweepDefaults(t *testing.T) {
	r := NFSSweepResultFrom(aggregates(t, "nfs", NFSGrid(nil, 0)))
	if len(r.Points) != 4 {
		t.Fatalf("default NFS sweep has %d points", len(r.Points))
	}
}

func TestAblationsReducedScale(t *testing.T) {
	b := aggregates(t, "ablate-binding", []runner.Params{{"scale_div": 40}})[0].Stats
	if b["lazy_visit_sec"].Mean <= b["eager_visit_sec"].Mean {
		t.Fatal("binding ablation inverted")
	}
	cov := CoveragePointsFrom(aggregates(t, "ablate-coverage", CoverageGrid(nil, 40)))
	if len(cov) != 4 {
		t.Fatalf("default coverage points: %d", len(cov))
	}
	for i := 1; i < len(cov); i++ {
		if cov[i].FuncsVisited < cov[i-1].FuncsVisited {
			t.Fatal("coverage not monotone in functions visited")
		}
	}
	a := aggregates(t, "ablate-aslr", []runner.Params{{"tasks": 16, "scale_div": 40}})[0].Stats
	if a["heterogeneous_phase1_sec"].Mean <= a["homogeneous_phase1_sec"].Mean {
		t.Fatal("ASLR ablation inverted")
	}
}

// TestJobDistCell covers the J1 cell: distribution columns are ordered
// (min ≤ mean ≤ p99 ≤ max), heterogeneity spreads them, and missing
// grid keys are an error rather than a silent zero default.
func TestJobDistCell(t *testing.T) {
	p := runner.Params{
		"tasks": 8, "mode": "vanilla", "scale_div": 40, "funcs_div": 10,
		"rank_skew": 0.4, "straggler_frac": 0.5,
	}
	m, err := jobDistCell(context.Background(), p, 0)
	if err != nil {
		t.Fatal(err)
	}
	if m["ranks"] != 8 || m["nodes_used"] != 1 || m["straggler_nodes"] != 1 {
		t.Fatalf("job shape: %+v", m)
	}
	if !(m["visit_min_sec"] > 0 && m["visit_min_sec"] <= m["visit_mean_sec"] &&
		m["visit_mean_sec"] <= m["visit_p99_sec"] &&
		m["visit_p99_sec"] <= m["visit_max_sec"]) {
		t.Fatalf("visit distribution disordered: %+v", m)
	}
	if m["visit_max_sec"] <= m["visit_min_sec"] {
		t.Fatalf("skew produced a flat distribution: %+v", m)
	}
	for _, key := range []string{"tasks", "mode", "scale_div", "funcs_div"} {
		broken := runner.Params{}
		for k, v := range p {
			if k != key {
				broken[k] = v
			}
		}
		if _, err := jobDistCell(context.Background(), broken, 0); err == nil {
			t.Fatalf("missing %q accepted", key)
		}
	}
}
