package job

import (
	"context"
	"encoding/json"
	"math"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/cluster"
	"repro/internal/dynld"
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

func mustRun(t *testing.T, cfg Config) *Result {
	t.Helper()
	res, err := RunCtx(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestRunValidation(t *testing.T) {
	if _, err := RunCtx(context.Background(), Config{}); err == nil {
		t.Error("run without workload succeeded")
	}
	w := testWorkload(t)
	if _, err := RunCtx(context.Background(), Config{Workload: w, NTasks: 4, Ranks: 5}); err == nil {
		t.Error("more simulated ranks than tasks accepted")
	}
	if _, err := RunCtx(context.Background(), Config{Workload: w, NTasks: 1 << 22}); err == nil {
		t.Error("oversubscribed job accepted")
	}
}

// TestDefaultSimulatesAllTasks: Ranks 0 means every task of the job is
// simulated, each pinned to its placement node.
func TestDefaultSimulatesAllTasks(t *testing.T) {
	w := testWorkload(t)
	res := mustRun(t, Config{Mode: Vanilla, Workload: w, NTasks: 12})
	if len(res.Ranks) != 12 {
		t.Fatalf("simulated %d ranks, want 12", len(res.Ranks))
	}
	if res.NodesUsed != 2 {
		t.Fatalf("NodesUsed = %d, want 2 (block placement, 8 cores/node)", res.NodesUsed)
	}
	for r, m := range res.Ranks {
		if m.Rank != r {
			t.Fatalf("rank %d reports id %d", r, m.Rank)
		}
		if want := r / 8; m.Node != want {
			t.Fatalf("rank %d on node %d, want %d", r, m.Node, want)
		}
	}
}

// TestDeterminismAcrossSchedules is the engine's core guarantee: the
// full result — every rank's metrics, every distribution — is
// byte-identical regardless of worker count and GOMAXPROCS.
func TestDeterminismAcrossSchedules(t *testing.T) {
	w := testWorkload(t)
	run := func(workers, maxprocs int) []byte {
		t.Helper()
		if maxprocs > 0 {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(maxprocs))
		}
		res := mustRun(t, Config{
			Mode: Link, Workload: w, NTasks: 16, Seed: 42,
			RankSkew: 0.3, StragglerFrac: 0.5, WarmNodeFrac: 0.5,
			Workers: workers,
		})
		raw, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	want := run(1, 0)
	for _, tc := range []struct{ workers, maxprocs int }{
		{8, 0}, {3, 0}, {16, 1}, {8, 2},
	} {
		if got := run(tc.workers, tc.maxprocs); string(got) != string(want) {
			t.Fatalf("workers=%d GOMAXPROCS=%d: result bytes diverge",
				tc.workers, tc.maxprocs)
		}
	}
}

// TestHomogeneousRanksIdentical: with no heterogeneity knobs, every
// rank performs identical work from identical cold state, so per-rank
// phase metrics are exactly equal and the distributions are flat.
func TestHomogeneousRanksIdentical(t *testing.T) {
	w := testWorkload(t)
	res := mustRun(t, Config{Mode: Vanilla, Workload: w, NTasks: 16, Seed: 7})
	r0 := res.Ranks[0]
	for _, m := range res.Ranks[1:] {
		if m.StartupSec != r0.StartupSec || m.ImportSec != r0.ImportSec ||
			m.VisitSec != r0.VisitSec {
			t.Fatalf("rank %d phase times differ from rank 0: %+v vs %+v", m.Rank, m, r0)
		}
		if m.Loader != r0.Loader || m.FS != r0.FS {
			t.Fatalf("rank %d substrate stats differ from rank 0", m.Rank)
		}
	}
	if res.Visit.Min != res.Visit.Max || res.Visit.P99 != res.Visit.Max {
		t.Fatalf("homogeneous visit distribution not flat: %+v", res.Visit)
	}
	if res.StartupSec != r0.StartupSec || res.TotalSec() != r0.TotalSec() {
		t.Fatalf("job phase times should equal any rank's in a homogeneous job")
	}
}

// TestRankSkewWidensDistribution: the skew knob must spread per-rank
// times (slowest > fastest) and never speed a rank up beyond nominal.
func TestRankSkewWidensDistribution(t *testing.T) {
	w := testWorkload(t)
	flat := mustRun(t, Config{Mode: Vanilla, Workload: w, NTasks: 16, Seed: 7})
	skewed := mustRun(t, Config{Mode: Vanilla, Workload: w, NTasks: 16, Seed: 7,
		RankSkew: 0.5})
	if skewed.Visit.Max <= skewed.Visit.Min {
		t.Fatalf("skewed visit distribution flat: %+v", skewed.Visit)
	}
	if skewed.Visit.Min < flat.Visit.Min*(1-1e-12) {
		t.Fatalf("skew sped a rank up: %g < %g", skewed.Visit.Min, flat.Visit.Min)
	}
	if skewed.VisitSec <= flat.VisitSec {
		t.Fatal("job visit time (slowest rank) not increased by skew")
	}
	for _, m := range skewed.Ranks {
		if m.Skew < 1 || m.Skew >= 1.5 {
			t.Fatalf("rank %d skew %g outside [1, 1.5)", m.Rank, m.Skew)
		}
	}
	// p99 sits between mean and max by construction.
	d := skewed.Visit
	if d.P99 < d.Mean || d.P99 > d.Max {
		t.Fatalf("p99 %g outside [mean %g, max %g]", d.P99, d.Mean, d.Max)
	}
}

// TestStragglerSlowsOnlyItsOwnRanks: I/O degradation on straggler
// nodes must hit exactly the ranks placed there; every other rank's
// metrics stay bit-identical to the clean run.
func TestStragglerSlowsOnlyItsOwnRanks(t *testing.T) {
	w := testWorkload(t)
	clean := mustRun(t, Config{Mode: Vanilla, Workload: w, NTasks: 32, Seed: 11})
	slow := mustRun(t, Config{Mode: Vanilla, Workload: w, NTasks: 32, Seed: 11,
		StragglerFrac: 0.25, StragglerIOScale: 8})
	if len(slow.StragglerNodes) != 1 {
		t.Fatalf("straggler nodes = %v, want exactly 1 of 4", slow.StragglerNodes)
	}
	sawStraggler := false
	for r := range slow.Ranks {
		s, c := slow.Ranks[r], clean.Ranks[r]
		if s.StragglerNode {
			sawStraggler = true
			if s.StartupSec <= c.StartupSec {
				t.Fatalf("straggler rank %d startup %g not slower than clean %g",
					r, s.StartupSec, c.StartupSec)
			}
			continue
		}
		sc := s
		sc.StragglerNode = c.StragglerNode
		if !reflect.DeepEqual(sc, c) {
			t.Fatalf("non-straggler rank %d perturbed by straggler knob:\n%+v\nvs\n%+v",
				r, s, c)
		}
	}
	if !sawStraggler {
		t.Fatal("no rank landed on the straggler node")
	}
	if slow.StartupSec <= clean.StartupSec {
		t.Fatal("job startup (slowest rank) not gated by the straggler")
	}
}

// TestWarmNodeRanksStartFaster: ranks on pre-warmed nodes serve their
// maps from the buffer cache; cold-node ranks are unaffected.
func TestWarmNodeRanksStartFaster(t *testing.T) {
	w := testWorkload(t)
	res := mustRun(t, Config{Mode: Vanilla, Workload: w, NTasks: 32, Seed: 3,
		WarmNodeFrac: 0.25})
	if len(res.WarmNodes) != 1 {
		t.Fatalf("warm nodes = %v, want exactly 1 of 4", res.WarmNodes)
	}
	warm := map[int]bool{}
	for _, n := range res.WarmNodes {
		warm[n] = true
	}
	var warmStartup, coldStartup float64
	for _, m := range res.Ranks {
		if warm[m.Node] {
			warmStartup = m.StartupSec
			if m.FS.CacheHits == 0 {
				t.Fatalf("warm-node rank %d had no cache hits", m.Rank)
			}
		} else {
			coldStartup = m.StartupSec
			if m.FS.CacheHits != 0 {
				t.Fatalf("cold-node rank %d had %d cache hits", m.Rank, m.FS.CacheHits)
			}
		}
	}
	if warmStartup == 0 || coldStartup == 0 {
		t.Fatal("expected both warm and cold ranks")
	}
	if warmStartup >= coldStartup {
		t.Fatalf("warm-node startup %g not faster than cold %g", warmStartup, coldStartup)
	}
}

// TestSharedIndexJobEquivalence: disabling the shared index (and the
// rest of the host-side fast path) must not change any simulated
// result of a multi-rank job.
func TestSharedIndexJobEquivalence(t *testing.T) {
	w := testWorkload(t)
	run := func(noFast bool) *Result {
		return mustRun(t, Config{Mode: Link, Workload: w, NTasks: 8, Seed: 5,
			NoFastPath: noFast})
	}
	fast, slow := run(false), run(true)
	// Kernel counters describe the host-side execution strategy, not the
	// simulation — they differ between the two paths by design.
	fast.Kernel, slow.Kernel = dynld.KernelStats{}, dynld.KernelStats{}
	if !reflect.DeepEqual(fast, slow) {
		t.Fatal("shared-index job results diverge from NoFastPath baseline")
	}
}

// TestRoundRobinSpreadsJob: cyclic placement uses more nodes than
// block for the same task count, and the placement is visible in the
// per-rank node assignment.
func TestRoundRobinSpreadsJob(t *testing.T) {
	w := testWorkload(t)
	block := mustRun(t, Config{Mode: Vanilla, Workload: w, NTasks: 16, Ranks: 4, Seed: 2})
	rr := mustRun(t, Config{Mode: Vanilla, Workload: w, NTasks: 16, Ranks: 4, Seed: 2,
		Placement: cluster.RoundRobin})
	if block.NodesUsed != 2 || rr.NodesUsed != 16 {
		t.Fatalf("NodesUsed block=%d rr=%d, want 2 and 16", block.NodesUsed, rr.NodesUsed)
	}
	for r, m := range rr.Ranks {
		if m.Node != r {
			t.Fatalf("round-robin rank %d on node %d, want %d", r, m.Node, r)
		}
	}
}

// TestColdWarmSequenceOverSharedFS: a second job over the same shared
// filesystem must see the caches the first job's ranks warmed — the
// Absorb barrier at work.
func TestColdWarmSequenceOverSharedFS(t *testing.T) {
	w := testWorkload(t)
	fs, err := fsim.New(fsim.Defaults(), 1)
	if err != nil {
		t.Fatal(err)
	}
	cold := mustRun(t, Config{Mode: Vanilla, Workload: w, NTasks: 4, Seed: 9, SharedFS: fs})
	warm := mustRun(t, Config{Mode: Vanilla, Workload: w, NTasks: 4, Seed: 9, SharedFS: fs,
		WarmFS: true})
	if warm.StartupSec >= cold.StartupSec {
		t.Fatalf("warm job startup %g not faster than cold %g",
			warm.StartupSec, cold.StartupSec)
	}
	if warm.Ranks[0].FS.CacheHits == 0 {
		t.Fatal("warm job saw no cache hits")
	}
}

func TestNewDist(t *testing.T) {
	if d := NewDist(nil); d != (Dist{}) {
		t.Fatalf("empty dist = %+v", d)
	}
	d := NewDist([]float64{4, 1, 3, 2})
	if d.Min != 1 || d.Max != 4 || d.Mean != 2.5 || d.P99 != 4 {
		t.Fatalf("dist = %+v", d)
	}
	if math.Abs(d.Std-math.Sqrt(1.25)) > 1e-15 {
		t.Fatalf("std = %g", d.Std)
	}
	// 200 samples: p99 is the 198th order statistic, below max.
	xs := make([]float64, 200)
	for i := range xs {
		xs[i] = float64(i)
	}
	d = NewDist(xs)
	if d.P99 != 197 || d.Max != 199 {
		t.Fatalf("p99 = %g, max = %g", d.P99, d.Max)
	}
}

func TestModeStrings(t *testing.T) {
	if Vanilla.String() != "Vanilla" || Link.String() != "Link" ||
		LinkBind.String() != "Link+Bind" || Mode(9).String() != "invalid" {
		t.Fatal("mode strings wrong")
	}
}
