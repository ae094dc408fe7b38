package job

import (
	"context"
	"encoding/json"
	"runtime"
	"testing"

	"repro/internal/pygen"
)

// relocWorkload returns a workload whose LinkBind startup batch is a
// few hundred relocations per rank — large enough that the loader's
// parallel resolve path actually engages (see dynld.minParallelRelocs).
func relocWorkload(t testing.TB) *pygen.Workload {
	t.Helper()
	cfg := pygen.LLNLModel().Scaled(40)
	cfg.AvgFuncsPerModule = 120
	cfg.AvgFuncsPerUtil = 120
	w, err := pygen.GenerateCtx(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// TestRelocWorkersDeterminismMatrix is the job-level contract for
// intra-rank relocation parallelism: the marshaled result — every
// rank's metrics, every distribution — must be byte-identical across
// the full RelocWorkers × GOMAXPROCS matrix, and the parallel path
// must actually run when workers are requested (a vacuous pass would
// gate nothing).
func TestRelocWorkersDeterminismMatrix(t *testing.T) {
	w := relocWorkload(t)
	run := func(relocWorkers, maxprocs int) ([]byte, *Result) {
		t.Helper()
		if maxprocs > 0 {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(maxprocs))
		}
		res := mustRun(t, Config{
			Mode: LinkBind, Workload: w, NTasks: 8, Ranks: 4, Seed: 42,
			RankSkew: 0.3, StragglerFrac: 0.25, Workers: 2,
			RelocWorkers: relocWorkers,
		})
		raw, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		return raw, res
	}
	want, _ := run(1, 0)
	for _, tc := range []struct{ relocWorkers, maxprocs int }{
		{0, 0}, {2, 0}, {8, 0}, {64, 0}, {2, 1}, {8, 1}, {2, 4}, {8, 4},
	} {
		got, res := run(tc.relocWorkers, tc.maxprocs)
		if string(got) != string(want) {
			t.Fatalf("RelocWorkers=%d GOMAXPROCS=%d: result bytes diverge",
				tc.relocWorkers, tc.maxprocs)
		}
		if tc.relocWorkers > 1 && res.Kernel.ParallelBatches == 0 {
			t.Errorf("RelocWorkers=%d GOMAXPROCS=%d: parallel resolve never engaged",
				tc.relocWorkers, tc.maxprocs)
		}
	}
}

// TestRelocWorkersSharedIndexHammer drives the worst-case concurrency
// shape under the race detector: many ranks resolving concurrently
// (the job worker pool) while each rank's loader additionally fans its
// relocation batches across resolver goroutines — all of them probing
// the one shared read-only symbol index. Results must still match a
// fully serial run byte for byte.
func TestRelocWorkersSharedIndexHammer(t *testing.T) {
	w := relocWorkload(t)
	run := func(workers, relocWorkers int) []byte {
		t.Helper()
		res := mustRun(t, Config{
			Mode: LinkBind, Workload: w, NTasks: 8, Ranks: 8, Seed: 7,
			Workers: workers, RelocWorkers: relocWorkers,
		})
		raw, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	want := run(1, 1)
	for i := 0; i < 3; i++ {
		if got := run(8, 4); string(got) != string(want) {
			t.Fatalf("hammer round %d: result bytes diverge from serial run", i)
		}
	}
}
