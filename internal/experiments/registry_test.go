package experiments

import (
	"context"
	"encoding/json"
	"testing"

	"repro/internal/driver"
	"repro/internal/runner"
	"repro/internal/scenario"
)

func TestRunnerRegistryNames(t *testing.T) {
	reg := RunnerRegistry()
	want := []string{"dllcount", "dllsize", "nfs", "jobdist", "ablate-binding",
		"ablate-coverage", "ablate-aslr"}
	want = append(want, scenario.Names()...)
	got := reg.Names()
	if len(got) != len(want) {
		t.Fatalf("registered = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("registered = %v, want %v", got, want)
		}
	}
	for _, name := range want {
		e := reg.Get(name)
		if e == nil || e.Description == "" || len(e.Grid()) == 0 {
			t.Fatalf("experiment %q incomplete", name)
		}
	}
}

// TestMatrixDeterministicAcrossWorkers is the acceptance property on
// the real experiments: the same matrix at -workers 1 and -workers 8
// aggregates byte-identically.
func TestMatrixDeterministicAcrossWorkers(t *testing.T) {
	small := map[string][]runner.Params{
		"dllcount": {
			{"dsos": 4, "mode": "vanilla"},
			{"dsos": 8, "mode": "link"},
		},
		"nfs": {
			{"nodes": 2, "scale_div": 40},
			{"nodes": 4, "scale_div": 40},
		},
	}
	render := func(workers int) string {
		res, err := runner.RunMatrixCtx(context.Background(), RunnerRegistry(), runner.MatrixSpec{
			Experiments: []string{"dllcount", "nfs"},
			Grids:       small,
			Repeats:     2,
			Seed:        42,
			Workers:     workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.MarshalIndent(res.Experiments, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	if one, eight := render(1), render(8); one != eight {
		t.Fatalf("matrix differs between 1 and 8 workers:\n%s\n---\n%s", one, eight)
	}
}

// TestMatrixCachedSecondRun checks the real-cell cache path: every
// cell of a repeated matrix is served from cache.
func TestMatrixCachedSecondRun(t *testing.T) {
	cache := runner.NewMemCache()
	spec := runner.MatrixSpec{
		Experiments: []string{"dllcount"},
		Grids: map[string][]runner.Params{
			"dllcount": {{"dsos": 4, "mode": "vanilla"}},
		},
		Repeats: 2,
		Seed:    42,
		Workers: 4,
		Cache:   cache,
	}
	first, err := runner.RunMatrixCtx(context.Background(), RunnerRegistry(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if first.CacheMisses != 2 || first.CacheHits != 0 {
		t.Fatalf("first run: %d hits / %d misses", first.CacheHits, first.CacheMisses)
	}
	second, err := runner.RunMatrixCtx(context.Background(), RunnerRegistry(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if second.CacheHits != 2 || second.CacheMisses != 0 {
		t.Fatalf("second run: %d hits / %d misses", second.CacheHits, second.CacheMisses)
	}
}

func TestParseModeRoundTrip(t *testing.T) {
	for _, mode := range []driver.BuildMode{driver.Vanilla, driver.Link, driver.LinkBind} {
		got, err := ParseMode(ModeKey(mode))
		if err != nil || got != mode {
			t.Fatalf("round trip %v: got %v err %v", mode, got, err)
		}
		// Table I row labels parse too.
		got, err = ParseMode(mode.String())
		if err != nil || got != mode {
			t.Fatalf("label %q: got %v err %v", mode.String(), got, err)
		}
	}
	if _, err := ParseMode("bogus"); err == nil {
		t.Fatal("bogus mode accepted")
	}
}
