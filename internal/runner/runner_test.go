package runner

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// fakeRegistry registers a deterministic synthetic experiment whose
// result is a pure function of (params, seed), with a tiny seed-
// dependent sleep so completion order varies across pool schedules.
func fakeRegistry(jitter bool) *Registry {
	reg := NewRegistry()
	reg.MustRegister(&Experiment{
		Name:        "fake",
		Description: "synthetic cell for pool tests",
		Grid: func() []Params {
			return []Params{{"x": 1}, {"x": 2}, {"x": 3}}
		},
		Run: func(_ context.Context, p Params, seed uint64) (Metrics, error) {
			if jitter {
				time.Sleep(time.Duration(seed%5) * time.Millisecond)
			}
			return Metrics{
				"val":  float64(p.Int("x"))*10 + float64(seed%97),
				"echo": float64(p.Int("x")),
			}, nil
		},
	})
	reg.MustRegister(&Experiment{
		Name:        "fake2",
		Description: "second experiment",
		Grid: func() []Params {
			return []Params{{"y": "a"}, {"y": "b"}}
		},
		Run: func(_ context.Context, p Params, seed uint64) (Metrics, error) {
			return Metrics{"len": float64(len(p.Str("y"))) + float64(seed%13)}, nil
		},
	})
	return reg
}

func mustJSON(t *testing.T, v any) string {
	t.Helper()
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func TestRunMatrixDeterministicAcrossWorkers(t *testing.T) {
	var outs []string
	for _, workers := range []int{1, 4, 8} {
		res, err := RunMatrixCtx(context.Background(), fakeRegistry(true), MatrixSpec{
			Repeats: 3,
			Seed:    42,
			Workers: workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		outs = append(outs, mustJSON(t, res.Experiments))
	}
	if outs[0] != outs[1] || outs[0] != outs[2] {
		t.Fatalf("results differ across worker counts:\n1 worker:\n%s\n8 workers:\n%s",
			outs[0], outs[2])
	}
	if !strings.Contains(outs[0], `"val"`) {
		t.Fatalf("metrics missing from result:\n%s", outs[0])
	}
}

func TestRunMatrixCellLayout(t *testing.T) {
	res, err := RunMatrixCtx(context.Background(), fakeRegistry(false), MatrixSpec{
		Experiments: []string{"fake"},
		Repeats:     2,
		Seed:        7,
		Workers:     3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Experiments) != 1 {
		t.Fatalf("experiments = %d", len(res.Experiments))
	}
	er := res.Experiments[0]
	if len(er.Cells) != 6 || len(er.Aggregates) != 3 {
		t.Fatalf("cells = %d aggregates = %d", len(er.Cells), len(er.Aggregates))
	}
	// Cells are ordered grid-major, repeat-minor regardless of pool
	// scheduling.
	for g := 0; g < 3; g++ {
		for rep := 0; rep < 2; rep++ {
			c := er.Cells[g*2+rep]
			if c.Params.Int("x") != g+1 || c.Repeat != rep {
				t.Fatalf("cell[%d] = x%d repeat %d", g*2+rep, c.Params.Int("x"), c.Repeat)
			}
			if c.Seed == 0 {
				t.Fatal("nonzero base seed produced a zero cell seed")
			}
		}
	}
	// Repeats of a cell get distinct seeds; grid points within the
	// same repeat share one (the sweep's workload must not vary with
	// the swept parameter).
	if er.Cells[0].Seed == er.Cells[1].Seed {
		t.Fatal("repeat seeds collide")
	}
	if er.Cells[0].Seed != er.Cells[2].Seed {
		t.Fatal("grid points of one repeat must share a seed")
	}
}

func TestRunMatrixPaperDefaultSeed(t *testing.T) {
	var ran atomic.Int64
	reg := NewRegistry()
	reg.MustRegister(&Experiment{
		Name: "counted",
		Grid: func() []Params { return []Params{{"x": 1}, {"x": 2}, {"x": 3}} },
		Run: func(_ context.Context, p Params, seed uint64) (Metrics, error) {
			ran.Add(1)
			return Metrics{"val": float64(p.Int("x")) + float64(seed)}, nil
		},
	})
	res, err := RunMatrixCtx(context.Background(), reg, MatrixSpec{Repeats: 3, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	er := res.Experiments[0]
	if len(er.Cells) != 9 {
		t.Fatalf("cells = %d", len(er.Cells))
	}
	// Identical repeats are executed once per grid point and
	// replicated, not recomputed.
	if n := ran.Load(); n != 3 {
		t.Fatalf("executed %d cells, want 3", n)
	}
	for i, c := range er.Cells {
		if c.Seed != 0 {
			t.Fatalf("base seed 0 must propagate 0, got %d", c.Seed)
		}
		if c.Repeat != i%3 {
			t.Fatalf("cell %d repeat = %d", i, c.Repeat)
		}
	}
	// With the sentinel seed, repeats are identical and std collapses.
	for _, a := range er.Aggregates {
		if a.Repeats != 3 || a.Stats["val"].Std != 0 {
			t.Fatalf("aggregate under sentinel seed = %+v", a)
		}
	}
}

func TestCellSeed(t *testing.T) {
	if CellSeed(0, "e", 3) != 0 {
		t.Fatal("base 0 must stay the sentinel")
	}
	a := CellSeed(42, "e", 0)
	if a != CellSeed(42, "e", 0) {
		t.Fatal("derivation not deterministic")
	}
	distinct := map[uint64]string{a: "base"}
	for name, s := range map[string]uint64{
		"repeat":     CellSeed(42, "e", 1),
		"experiment": CellSeed(42, "f", 0),
		"base":       CellSeed(43, "e", 0),
	} {
		if s == 0 {
			t.Fatalf("%s: derived seed is zero", name)
		}
		if prev, dup := distinct[s]; dup {
			t.Fatalf("%s collides with %s", name, prev)
		}
		distinct[s] = name
	}
}

// TestCellSeedPropertyDeterminismAndDispersion is the property-based
// contract for per-cell seed derivation, sampled over 10k random
// (base, experiment, repeat) tuples: recomputing a tuple always yields
// the same seed, no two distinct tuples collide, and no nonzero base
// ever collapses into the seed-0 sentinel.
func TestCellSeedPropertyDeterminismAndDispersion(t *testing.T) {
	rng := rand.New(rand.NewSource(20260729))
	names := []string{
		"dllcount", "dllsize", "nfs",
		"ablate-binding", "ablate-coverage", "ablate-aslr",
		"scenario:startup-storm", "scenario:reimport-churn",
		"scenario:mixed-builds", "scenario:import-shuffle",
		"scenario:nfs-cold-warm", "scenario:symbol-collision",
	}
	type tuple struct {
		base uint64
		exp  string
		rep  int
	}
	seeds := map[uint64]tuple{}
	sampled := map[tuple]bool{}
	for len(sampled) < 10000 {
		tu := tuple{
			base: rng.Uint64(),
			exp:  names[rng.Intn(len(names))],
			rep:  rng.Intn(1000),
		}
		if tu.base == 0 || sampled[tu] {
			continue
		}
		sampled[tu] = true
		s := CellSeed(tu.base, tu.exp, tu.rep)
		if s == 0 {
			t.Fatalf("tuple %+v collapsed into the sentinel", tu)
		}
		if s != CellSeed(tu.base, tu.exp, tu.rep) {
			t.Fatalf("tuple %+v not deterministic", tu)
		}
		if prev, dup := seeds[s]; dup {
			t.Fatalf("seed collision: %+v and %+v both derive %#x", prev, tu, s)
		}
		seeds[s] = tu
	}
}

// TestRunMatrixWorkerCountMatrix is the cross-worker determinism
// property at matrix granularity: every combination of worker count
// and cache configuration must produce byte-identical experiment
// results (cells and aggregates) for a fixed base seed.
func TestRunMatrixWorkerCountMatrix(t *testing.T) {
	var want string
	for _, workers := range []int{1, 2, 3, 5, 8, 16} {
		for _, withCache := range []bool{false, true} {
			spec := MatrixSpec{Repeats: 3, Seed: 1234, Workers: workers}
			if withCache {
				spec.Cache = NewMemCache()
			}
			res, err := RunMatrixCtx(context.Background(), fakeRegistry(true), spec)
			if err != nil {
				t.Fatal(err)
			}
			got := mustJSON(t, res.Experiments)
			if want == "" {
				want = got
			} else if got != want {
				t.Fatalf("workers=%d cache=%v diverges from reference run",
					workers, withCache)
			}
			if withCache {
				// Every cell re-queried the cache it just filled... or
				// was served by it; traffic must account for all cells.
				if res.CacheHits+res.CacheMisses != res.ExecutedCells {
					t.Fatalf("cache traffic %d+%d != executed %d",
						res.CacheHits, res.CacheMisses, res.ExecutedCells)
				}
			}
		}
	}
}

func TestRunMatrixUnknownExperiment(t *testing.T) {
	_, err := RunMatrixCtx(context.Background(), fakeRegistry(false), MatrixSpec{Experiments: []string{"nope"}})
	if err == nil || !strings.Contains(err.Error(), "nope") {
		t.Fatalf("want unknown-experiment error, got %v", err)
	}
}

func TestRunMatrixDuplicateExperiment(t *testing.T) {
	_, err := RunMatrixCtx(context.Background(), fakeRegistry(false), MatrixSpec{
		Experiments: []string{"fake", "fake"},
	})
	if err == nil || !strings.Contains(err.Error(), "twice") {
		t.Fatalf("want duplicate-experiment error, got %v", err)
	}
}

func TestRunMatrixCellError(t *testing.T) {
	reg := NewRegistry()
	reg.MustRegister(&Experiment{
		Name: "boom",
		Grid: func() []Params { return []Params{{"x": 1}, {"x": 2}} },
		Run: func(_ context.Context, p Params, seed uint64) (Metrics, error) {
			if p.Int("x") == 2 {
				return nil, fmt.Errorf("exploded")
			}
			return Metrics{"ok": 1}, nil
		},
	})
	_, err := RunMatrixCtx(context.Background(), reg, MatrixSpec{Workers: 4})
	if err == nil || !strings.Contains(err.Error(), "exploded") ||
		!strings.Contains(err.Error(), "boom") {
		t.Fatalf("want wrapped cell error, got %v", err)
	}
}

func TestRunMatrixFailsFast(t *testing.T) {
	var ran atomic.Int64
	reg := NewRegistry()
	grid := make([]Params, 50)
	for i := range grid {
		grid[i] = Params{"x": i}
	}
	reg.MustRegister(&Experiment{
		Name: "failfast",
		Grid: func() []Params { return grid },
		Run: func(_ context.Context, p Params, seed uint64) (Metrics, error) {
			ran.Add(1)
			if p.Int("x") == 0 {
				return nil, fmt.Errorf("first cell fails")
			}
			time.Sleep(time.Millisecond)
			return Metrics{"ok": 1}, nil
		},
	})
	_, err := RunMatrixCtx(context.Background(), reg, MatrixSpec{Workers: 2})
	if err == nil || !strings.Contains(err.Error(), "first cell fails") {
		t.Fatalf("err = %v", err)
	}
	// A failed cell aborts the remaining queue; only cells already
	// in flight when the failure landed may still run.
	if n := ran.Load(); n >= 50 {
		t.Fatalf("all %d cells ran despite early failure", n)
	}
}

func TestRegistry(t *testing.T) {
	reg := NewRegistry()
	e := &Experiment{Name: "a", Run: func(context.Context, Params, uint64) (Metrics, error) { return nil, nil }}
	if err := reg.Register(e); err != nil {
		t.Fatal(err)
	}
	if err := reg.Register(e); err == nil {
		t.Fatal("duplicate registration allowed")
	}
	if err := reg.Register(&Experiment{Name: ""}); err == nil {
		t.Fatal("empty name allowed")
	}
	if err := reg.Register(&Experiment{Name: "norun"}); err == nil {
		t.Fatal("nil Run allowed")
	}
	if got := reg.Names(); len(got) != 1 || got[0] != "a" {
		t.Fatalf("names = %v", got)
	}
	if reg.Get("a") != e || reg.Get("b") != nil {
		t.Fatal("Get misbehaves")
	}
}

func TestAggregateCells(t *testing.T) {
	p := Params{"x": 1}
	cells := []CellResult{
		{Metrics: Metrics{"v": 2}},
		{Metrics: Metrics{"v": 4}},
		{Metrics: Metrics{"v": 9}},
	}
	a := AggregateCells(p, cells)
	s := a.Stats["v"]
	if s.Mean != 5 || s.Min != 2 || s.Max != 9 {
		t.Fatalf("stats = %+v", s)
	}
	// Sample std of {2,4,9}: sqrt(((−3)²+(−1)²+4²)/2) = sqrt(13).
	if math.Abs(s.Std-math.Sqrt(13)) > 1e-12 {
		t.Fatalf("std = %v want sqrt(13)", s.Std)
	}
	if a.Repeats != 3 {
		t.Fatalf("repeats = %d", a.Repeats)
	}
	single := AggregateCells(p, cells[:1])
	if st := single.Stats["v"]; st.Std != 0 || st.Mean != 2 || st.Min != 2 || st.Max != 2 {
		t.Fatalf("single-repeat stats = %+v", st)
	}
}

func TestAggregateCellsConditionalMetric(t *testing.T) {
	// A metric absent from some cells aggregates over the cells that
	// report it (never zero-filled), including one absent from the
	// first cell.
	cells := []CellResult{
		{Metrics: Metrics{"v": 2}},
		{Metrics: Metrics{"v": 4, "retry": 6}},
		{Metrics: Metrics{"v": 9, "retry": 8}},
	}
	a := AggregateCells(Params{"x": 1}, cells)
	if s := a.Stats["retry"]; s.Mean != 7 || s.Min != 6 || s.Max != 8 {
		t.Fatalf("conditional metric stats = %+v", s)
	}
	if s := a.Stats["v"]; s.Mean != 5 {
		t.Fatalf("full metric stats = %+v", s)
	}
}

func TestWriteRunArtifacts(t *testing.T) {
	dir := t.TempDir()
	spec := MatrixSpec{Repeats: 2, Seed: 42, Workers: 4}
	res, err := RunMatrixCtx(context.Background(), fakeRegistry(false), spec)
	if err != nil {
		t.Fatal(err)
	}
	files, err := WriteRun(filepath.Join(dir, "run1"), spec, res,
		time.Date(2026, 7, 28, 12, 0, 0, 0, time.UTC))
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"run1/manifest.json",
		"run1/fake/results.json", "run1/fake/cells.json", "run1/fake/results.csv",
		"run1/fake2/results.json", "run1/fake2/cells.json", "run1/fake2/results.csv",
	}
	if len(files) != len(want) {
		t.Fatalf("files = %v", files)
	}
	for _, rel := range want {
		if _, err := os.Stat(filepath.Join(dir, rel)); err != nil {
			t.Fatalf("missing artifact %s: %v", rel, err)
		}
	}

	var man Manifest
	data, err := os.ReadFile(filepath.Join(dir, "run1/manifest.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &man); err != nil {
		t.Fatal(err)
	}
	if man.Cells != res.Cells() || man.Workers != 4 || man.Seed != 42 {
		t.Fatalf("manifest = %+v", man)
	}

	csv, err := os.ReadFile(filepath.Join(dir, "run1/fake/results.csv"))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(csv)), "\n")
	if len(lines) != 4 { // header + 3 grid points
		t.Fatalf("csv:\n%s", csv)
	}
	if lines[0] != "x,repeats,echo_mean,echo_std,echo_min,echo_max,val_mean,val_std,val_min,val_max" {
		t.Fatalf("csv header = %s", lines[0])
	}

	// The aggregated results.json must be byte-identical when the same
	// matrix runs at a different worker count.
	res1, err := RunMatrixCtx(context.Background(), fakeRegistry(true), MatrixSpec{Repeats: 2, Seed: 42, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := WriteRun(filepath.Join(dir, "run2"),
		MatrixSpec{Repeats: 2, Seed: 42, Workers: 1}, res1,
		time.Date(2026, 7, 28, 13, 0, 0, 0, time.UTC)); err != nil {
		t.Fatal(err)
	}
	for _, exp := range []string{"fake", "fake2"} {
		a, err := os.ReadFile(filepath.Join(dir, "run1", exp, "results.json"))
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(filepath.Join(dir, "run2", exp, "results.json"))
		if err != nil {
			t.Fatal(err)
		}
		if string(a) != string(b) {
			t.Fatalf("%s/results.json differs across worker counts:\n%s\n---\n%s", exp, a, b)
		}
	}
}

func TestParamsLookupVariants(t *testing.T) {
	p := Params{"i": 3, "f": 2.5, "jf": float64(7), "s": "link"}
	if v, ok := p.LookupInt("i"); !ok || v != 3 {
		t.Fatalf("LookupInt(i) = %d, %v", v, ok)
	}
	// JSON round-trips store ints as float64; Lookup must accept both.
	if v, ok := p.LookupInt("jf"); !ok || v != 7 {
		t.Fatalf("LookupInt(jf) = %d, %v", v, ok)
	}
	if v, ok := p.LookupFloat("f"); !ok || v != 2.5 {
		t.Fatalf("LookupFloat(f) = %g, %v", v, ok)
	}
	if v, ok := p.LookupFloat("i"); !ok || v != 3 {
		t.Fatalf("LookupFloat(i) = %g, %v", v, ok)
	}
	if v, ok := p.LookupStr("s"); !ok || v != "link" {
		t.Fatalf("LookupStr(s) = %q, %v", v, ok)
	}
	// Absent and mistyped keys report !ok instead of a silent zero.
	if _, ok := p.LookupInt("missing"); ok {
		t.Fatal("LookupInt reported a missing key present")
	}
	// A non-integral float is a malformed grid point, not an int.
	if _, ok := p.LookupInt("f"); ok {
		t.Fatal("LookupInt truncated a non-integral float")
	}
	if _, ok := p.LookupFloat("s"); ok {
		t.Fatal("LookupFloat accepted a string")
	}
	if _, ok := p.LookupStr("i"); ok {
		t.Fatal("LookupStr accepted an int")
	}
}
