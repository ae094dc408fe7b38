package pynamic

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"testing"

	"repro/internal/cluster"
	"repro/internal/fsim"
)

// This file is the workload-cache equivalence suite: a call whose
// workload a default Engine's cache served must produce byte-identical
// JSON to the same call on an Engine with the cache disabled
// (WithWorkloadCacheSize(0)), which generates every workload afresh,
// across seeds, build modes and job knobs. The cached engine reuses
// one workload object across the calls of a test, so the suite proves
// that cache-served workloads change nothing downstream.

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func freshEngine(tb testing.TB, opts ...Option) *Engine {
	tb.Helper()
	eng, err := New(opts...)
	if err != nil {
		tb.Fatal(err)
	}
	return eng
}

// cachePair returns a default engine and an engine with its workload
// cache disabled.
func cachePair(t *testing.T) (cached, uncached *Engine) {
	return freshEngine(t), freshEngine(t, WithWorkloadCacheSize(0))
}

// assertCacheEquivalent runs call on cached, whose workload cache must
// serve the call's workload, and on uncached, and requires
// byte-identical JSON results.
func assertCacheEquivalent(t *testing.T, what string, cached, uncached *Engine,
	call func(*Engine) (any, error)) {
	t.Helper()
	hits := cached.WorkloadCacheStats().Hits
	got, err := call(cached)
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	if cached.WorkloadCacheStats().Hits == hits {
		t.Fatalf("%s: workload not served from the cache", what)
	}
	want, err := call(uncached)
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	if g, w := mustJSON(t, got), mustJSON(t, want); !bytes.Equal(g, w) {
		t.Fatalf("%s: cache-served result diverges from uncached:\ncached   %s\nuncached %s",
			what, g, w)
	}
}

// TestRunEquivalence: (*Engine).RunCtx over seeds × modes.
func TestRunEquivalence(t *testing.T) {
	ctx := context.Background()
	cached, uncached := cachePair(t)
	for _, seed := range []uint64{42, 7} {
		cfg := LLNLModel().Scaled(50).ScaledFuncs(10)
		cfg.Seed = seed
		if _, err := cached.GenerateCtx(ctx, cfg); err != nil {
			t.Fatal(err)
		}
		assertCacheEquivalent(t, fmt.Sprintf("seed %d workload sizes", seed), cached, uncached,
			func(e *Engine) (any, error) {
				w, err := e.GenerateCtx(ctx, cfg)
				if err != nil {
					return nil, err
				}
				return w.Sizes(), nil
			})
		for _, mode := range []BuildMode{Vanilla, Link, LinkBind} {
			assertCacheEquivalent(t, fmt.Sprintf("seed %d mode %s", seed, mode), cached, uncached,
				func(e *Engine) (any, error) {
					w, err := e.GenerateCtx(ctx, cfg)
					if err != nil {
						return nil, err
					}
					return e.RunCtx(ctx, RunConfig{
						Mode: mode, Workload: w, NTasks: 8, RunMPITest: true, Seed: seed,
					})
				})
		}
	}
}

// TestRunJobEquivalence: (*Engine).RunJobCtx, including the
// heterogeneity knobs and round-robin placement.
func TestRunJobEquivalence(t *testing.T) {
	ctx := context.Background()
	cached, uncached := cachePair(t)
	for _, seed := range []uint64{42, 7} {
		cfg := LLNLModel().Scaled(40).ScaledFuncs(10)
		cfg.Seed = seed
		if _, err := cached.GenerateCtx(ctx, cfg); err != nil {
			t.Fatal(err)
		}
		assertCacheEquivalent(t, fmt.Sprintf("seed %d", seed), cached, uncached,
			func(e *Engine) (any, error) {
				w, err := e.GenerateCtx(ctx, cfg)
				if err != nil {
					return nil, err
				}
				return e.RunJobCtx(ctx, JobConfig{
					Mode: Link, Workload: w, NTasks: 16, Ranks: 4,
					Placement: PlacementRoundRobin,
					RankSkew:  0.3, StragglerFrac: 0.25, WarmNodeFrac: 0.25,
					Seed: seed,
				})
			})
	}
}

// TestToolAttachEquivalence: (*Engine).ToolAttachCtx, cold and warm
// halves both.
func TestToolAttachEquivalence(t *testing.T) {
	ctx := context.Background()
	cached, uncached := cachePair(t)
	cfg := LLNLModel().Scaled(40).ScaledFuncs(10)
	if _, err := cached.GenerateCtx(ctx, cfg); err != nil {
		t.Fatal(err)
	}
	newFS := func() *fsim.FS {
		place, err := cluster.Place(cluster.Zeus(), 8)
		if err != nil {
			t.Fatal(err)
		}
		fs, err := fsim.New(fsim.Defaults(), place.NodesUsed())
		if err != nil {
			t.Fatal(err)
		}
		return fs
	}
	fs := map[*Engine]*fsim.FS{cached: newFS(), uncached: newFS()}
	for _, half := range []string{"cold", "warm"} {
		assertCacheEquivalent(t, half, cached, uncached, func(e *Engine) (any, error) {
			w, err := e.GenerateCtx(ctx, cfg)
			if err != nil {
				return nil, err
			}
			return e.ToolAttachCtx(ctx, ToolStartupConfig{Workload: w, Tasks: 8, FS: fs[e]})
		})
	}
}

// TestTableEquivalence: the Table I and IV methods at a reduced scale
// (full scale is covered by the headline reproduction tests). The
// first call on the cached engine fills its cache; the second is
// served from it.
func TestTableEquivalence(t *testing.T) {
	ctx := context.Background()
	cached, uncached := cachePair(t)
	opts := ExperimentOptions{ScaleDiv: 40, Tasks: 8}
	for _, table := range []struct {
		name string
		call func(*Engine) (any, error)
	}{
		{"TableI", func(e *Engine) (any, error) { return e.TableICtx(ctx, opts) }},
		{"TableIV", func(e *Engine) (any, error) { return e.TableIVCtx(ctx, opts) }},
	} {
		if _, err := table.call(cached); err != nil {
			t.Fatal(err)
		}
		assertCacheEquivalent(t, table.name, cached, uncached, table.call)
	}
}

// TestTableIIIEquivalence needs a full-scale generation, so it is
// skipped under -short.
func TestTableIIIEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale generation skipped in -short mode")
	}
	ctx := context.Background()
	cached, uncached := cachePair(t)
	tableIII := func(e *Engine) (any, error) { return e.TableIIICtx(ctx, 0) }
	if _, err := tableIII(cached); err != nil {
		t.Fatal(err)
	}
	assertCacheEquivalent(t, "TableIII", cached, uncached, tableIII)
}

// TestMatrixEquivalence: the Engine's matrix entry point is
// independent of the worker count.
func TestMatrixEquivalence(t *testing.T) {
	ctx := context.Background()
	run := func(workers int) *MatrixResult {
		res, err := freshEngine(t).RunMatrixCtx(ctx, MatrixSpec{
			Experiments: []string{"dllcount"},
			Repeats:     2,
			Seed:        42,
			Workers:     workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(1), run(8)
	if o, n := mustJSON(t, a.Experiments), mustJSON(t, b.Experiments); !bytes.Equal(o, n) {
		t.Fatal("matrix results depend on worker count")
	}
}
