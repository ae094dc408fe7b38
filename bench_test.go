// Benchmarks regenerating every table and figure of the paper. Each
// benchmark measures the host cost of one full experiment run; the
// *simulated* results (the actual reproduction) are reported as custom
// metrics where meaningful, and printed by cmd/pynamic-tables.
//
//	BenchmarkTableI_*     — Table I rows (driver phase times)
//	BenchmarkTableII      — Table II (cache misses; same driver machinery)
//	BenchmarkTableIII     — Table III (full-scale size accounting)
//	BenchmarkTableIV_*    — Table IV (tool startup cold/warm)
//	BenchmarkCostModel    — §II.B.3 closed form + event simulation
//	BenchmarkSweep*       — S1/S2/S3 scaling studies
//	BenchmarkAblation*    — A1/A2/A3 ablations
//	BenchmarkMPITest      — the driver's pyMPI functionality test
//
// Driver benches default to a 1/20-scale workload so `go test -bench=.`
// completes quickly; the full-scale numbers come from
// `go run ./cmd/pynamic-tables`.
package pynamic

import (
	"context"
	"testing"

	"repro/internal/cluster"
	"repro/internal/driver"
	"repro/internal/dynld"
	"repro/internal/elfimg"
	"repro/internal/experiments"
	"repro/internal/fsim"
	"repro/internal/job"
	"repro/internal/memsim"
	"repro/internal/mpisim"
	"repro/internal/pygen"
	"repro/internal/pympi"
	"repro/internal/simtime"
	"repro/internal/toolsim"
)

const benchScaleDiv = 20

func benchWorkload(b *testing.B) *Workload {
	b.Helper()
	w, err := freshEngine(b).GenerateCtx(context.Background(), LLNLModel().Scaled(benchScaleDiv))
	if err != nil {
		b.Fatal(err)
	}
	return w
}

func benchDriver(b *testing.B, mode BuildMode) {
	eng, w := freshEngine(b), benchWorkload(b)
	b.ResetTimer()
	var last *Metrics
	for i := 0; i < b.N; i++ {
		m, err := eng.RunCtx(context.Background(), RunConfig{Mode: mode, Workload: w, NTasks: 32})
		if err != nil {
			b.Fatal(err)
		}
		last = m
	}
	b.ReportMetric(last.StartupSec, "sim-startup-s")
	b.ReportMetric(last.ImportSec, "sim-import-s")
	b.ReportMetric(last.VisitSec, "sim-visit-s")
}

func BenchmarkTableI_Vanilla(b *testing.B)  { benchDriver(b, Vanilla) }
func BenchmarkTableI_Link(b *testing.B)     { benchDriver(b, Link) }
func BenchmarkTableI_LinkBind(b *testing.B) { benchDriver(b, LinkBind) }

// BenchmarkTableII measures the instrumented (PAPI-observed) run and
// reports the Table II cells as custom metrics.
func BenchmarkTableII(b *testing.B) {
	eng, w := freshEngine(b), benchWorkload(b)
	b.ResetTimer()
	var last *Metrics
	for i := 0; i < b.N; i++ {
		m, err := eng.RunCtx(context.Background(), RunConfig{Mode: Link, Workload: w, NTasks: 32})
		if err != nil {
			b.Fatal(err)
		}
		last = m
	}
	b.ReportMetric(last.Import.L1DMissM, "import-L1D-Mmiss")
	b.ReportMetric(last.Visit.L1DMissM, "visit-L1D-Mmiss")
	b.ReportMetric(last.Visit.L1IMissM, "visit-L1I-Mmiss")
}

// BenchmarkTableIII generates the paper's full 495-DSO workload and
// aggregates section sizes (the complete Table III computation).
func BenchmarkTableIII(b *testing.B) {
	eng := freshEngine(b)
	var totalMB float64
	for i := 0; i < b.N; i++ {
		r, err := eng.TableIIICtx(context.Background(), uint64(42+i))
		if err != nil {
			b.Fatal(err)
		}
		totalMB = r.PynamicMB.Total()
	}
	b.ReportMetric(totalMB, "sim-total-MB")
}

func benchToolStartup(b *testing.B, warm bool) {
	w := benchWorkload(b)
	b.ResetTimer()
	var last toolsim.Phases
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		fs, err := fsim.New(fsim.Defaults(), 4)
		if err != nil {
			b.Fatal(err)
		}
		cfg := toolsim.Config{Workload: w, Tasks: 32, FS: fs}
		if warm {
			if _, err := toolsim.AttachCtx(context.Background(), cfg); err != nil {
				b.Fatal(err)
			}
		}
		b.StartTimer()
		last, err = toolsim.AttachCtx(context.Background(), cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(last.Phase1, "sim-phase1-s")
	b.ReportMetric(last.Phase2, "sim-phase2-s")
}

func BenchmarkTableIV_ColdStartup(b *testing.B) { benchToolStartup(b, false) }
func BenchmarkTableIV_WarmStartup(b *testing.B) { benchToolStartup(b, true) }

// BenchmarkCostModel evaluates the §II.B.3 example by event simulation
// (the closed form is O(1) and tested elsewhere).
func BenchmarkCostModel(b *testing.B) {
	m := toolsim.PaperExample()
	var secs float64
	for i := 0; i < b.N; i++ {
		secs = m.SimulateEvents()
	}
	b.ReportMetric(secs/60, "sim-minutes")
}

// benchExperiment runs one registered experiment over grid b.N times
// through an Engine and returns the last run's aggregates.
func benchExperiment(b *testing.B, name string, grid []Params) []Aggregate {
	eng := freshEngine(b)
	var aggs []Aggregate
	for i := 0; i < b.N; i++ {
		res, err := eng.RunExperimentCtx(context.Background(), name, ExperimentSpec{Grid: grid})
		if err != nil {
			b.Fatal(err)
		}
		aggs = res.Aggregates
	}
	return aggs
}

func BenchmarkSweepDLLCount(b *testing.B) {
	benchExperiment(b, "dllcount", experiments.DLLCountGrid([]int{8, 16, 32}, driver.Vanilla))
}

func BenchmarkSweepDLLSize(b *testing.B) {
	benchExperiment(b, "dllsize", experiments.DLLSizeGrid([]int{100, 200, 400}, driver.Vanilla))
}

func BenchmarkSweepNFS(b *testing.B) {
	last := experiments.NFSSweepResultFrom(
		benchExperiment(b, "nfs", experiments.NFSGrid([]int{4, 32, 128}, 25)))
	p := last.Points[len(last.Points)-1]
	b.ReportMetric(p.IndependentSecs/p.CollectiveSecs, "sim-speedup-x")
}

func BenchmarkAblationBinding(b *testing.B) {
	s := benchExperiment(b, "ablate-binding", []Params{{"scale_div": benchScaleDiv}})[0].Stats
	b.ReportMetric(s["lazy_visit_sec"].Mean/s["eager_visit_sec"].Mean, "sim-lazy-eager-x")
}

func BenchmarkAblationCoverage(b *testing.B) {
	benchExperiment(b, "ablate-coverage", experiments.CoverageGrid([]float64{0.5, 1.0}, benchScaleDiv))
}

func BenchmarkAblationASLR(b *testing.B) {
	s := benchExperiment(b, "ablate-aslr",
		[]Params{{"tasks": 32, "scale_div": benchScaleDiv}})[0].Stats
	b.ReportMetric(s["heterogeneous_phase1_sec"].Mean/s["homogeneous_phase1_sec"].Mean,
		"sim-slowdown-x")
}

// ---------------------------------------------------------------------
// Dynld symbol-lookup fast-path benchmarks: every pair runs the same
// simulated work with the memoized fast path on (fast) and off
// (baseline). CI gates on the fast/baseline ratio against the numbers
// committed in testdata/dynld_bench_baseline.txt.

type pltSite struct {
	le *dynld.LinkEntry
	ri int
}

// benchDynldLoader builds a Link-style loader (everything prelinked,
// lazy PLT) over the bench workload and force-binds every jump slot,
// returning the steady-state call sites.
func benchDynldLoader(b *testing.B, noFast bool) (*dynld.Loader, *pygen.Workload, []pltSite) {
	b.Helper()
	w := benchWorkload(b)
	mem := memsim.NewAnalytic(memsim.ZeusConfig())
	fs, err := fsim.New(fsim.Defaults(), 1)
	if err != nil {
		b.Fatal(err)
	}
	clock := simtime.NewClock(cluster.Zeus().CoreHz)
	ld := dynld.New(mem, fs, clock, dynld.Options{Clients: 1, NoFastPath: noFast})
	for _, img := range w.AllImages() {
		ld.Install(img)
	}
	ld.Install(w.Exe)
	if _, err := ld.StartupExecutable(w.Exe); err != nil {
		b.Fatal(err)
	}
	if err := ld.StartupPrelinked(w.Sonames()); err != nil {
		b.Fatal(err)
	}
	var sites []pltSite
	for _, le := range ld.LinkMap() {
		for _, ri := range le.Image.PLTRelocs() {
			if _, _, err := ld.ResolvePLTFunc(le, ri); err != nil {
				b.Fatal(err)
			}
			sites = append(sites, pltSite{le, ri})
		}
	}
	return ld, w, sites
}

func benchFastBaseline(b *testing.B, run func(b *testing.B, noFast bool)) {
	b.Run("fast", func(b *testing.B) { run(b, false) })
	b.Run("baseline", func(b *testing.B) { run(b, true) })
}

// BenchmarkDynldSymbolLookup measures the steady-state bound-PLT
// resolution path (the visit phase's hot loop): one op resolves every
// jump slot in the link map once.
func BenchmarkDynldSymbolLookup(b *testing.B) {
	benchFastBaseline(b, func(b *testing.B, noFast bool) {
		ld, _, sites := benchDynldLoader(b, noFast)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, s := range sites {
				if _, _, err := ld.ResolvePLTFunc(s.le, s.ri); err != nil {
					b.Fatal(err)
				}
			}
		}
		b.ReportMetric(float64(len(sites)), "slots")
	})
}

// BenchmarkDynldKernelSteadyState measures the zero-alloc simulation
// kernel: a warm loader resolving every bound jump slot AND every data
// GOT slot in the link map per op — the union of resolution paths the
// visit phase hits in steady state. The fast variant must report
// 0 B/op (arena-backed memos, flat symbol tables); CI gates both the
// fast/baseline ratio and the allocation figure.
func BenchmarkDynldKernelSteadyState(b *testing.B) {
	benchFastBaseline(b, func(b *testing.B, noFast bool) {
		ld, _, sites := benchDynldLoader(b, noFast)
		var data []pltSite
		for _, le := range ld.LinkMap() {
			for ri, r := range le.Image.Relocs {
				if r.Type == elfimg.RelocGOTData {
					data = append(data, pltSite{le, ri})
				}
			}
		}
		// Warm the data-slot memos so the timed loop is pure steady state.
		for _, s := range data {
			if _, err := ld.ResolveData(s.le, s.ri); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, s := range sites {
				if _, _, err := ld.ResolvePLTFunc(s.le, s.ri); err != nil {
					b.Fatal(err)
				}
			}
			for _, s := range data {
				if _, err := ld.ResolveData(s.le, s.ri); err != nil {
					b.Fatal(err)
				}
			}
		}
		b.ReportMetric(float64(len(sites)+len(data)), "slots")
	})
}

// BenchmarkDynldCachedDlopen measures the §IV.A cached-dlopen path
// (import of an already-linked module): one op re-opens every module,
// paying the dependency-closure re-verification walk each time.
func BenchmarkDynldCachedDlopen(b *testing.B) {
	benchFastBaseline(b, func(b *testing.B, noFast bool) {
		ld, w, _ := benchDynldLoader(b, noFast)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, img := range w.Modules {
				if _, err := ld.Dlopen(img.Name, dynld.RTLDLazy); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// BenchmarkDynldDriverLink is the end-to-end cross-check: a full Link
// build driver run (startup + import + visit) with the fast path on
// and off. The simulated results are identical (see the driver's
// fast-path equivalence test); only host ns/op may differ.
func BenchmarkDynldDriverLink(b *testing.B) {
	benchFastBaseline(b, func(b *testing.B, noFast bool) {
		eng, w := freshEngine(b), benchWorkload(b)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := eng.RunCtx(context.Background(), RunConfig{
				Mode: Link, Workload: w, NTasks: 32, NoFastPath: noFast,
			}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkDynldJobScale gates the job engine's shared-index scaling
// claim: an 8-rank job (fast) versus 8 sequential 1-rank jobs
// (baseline — each builds its own first-definer index, the pre-engine
// O(N × index-build) cost). Both variants run their ranks on ONE
// worker so the measured ratio isolates the shared-preparation saving
// and stays stable across runner core counts; goroutine parallelism
// across ranks comes on top of it in real use.
// The pair runs at reduced visit coverage: the startup/import phases —
// where per-rank index construction would sit — then dominate each
// rank, so the measured ratio tracks the index sharing rather than
// being drowned by visit-phase simulation work.
// Both variants run with the same rank skew. Skew seeds each rank's
// CPU speed, so the 8 ranks are 8 rank classes and the fast variant
// still simulates all 8: the ratio measures the shared index, not the
// collapse of a homogeneous job onto one rank.
func BenchmarkDynldJobScale(b *testing.B) {
	const ranks = 8
	const skew = 0.3
	cfg := pygen.LLNLModel().Scaled(40)
	w, err := pygen.GenerateCtx(context.Background(), cfg)
	if err != nil {
		b.Fatal(err)
	}
	var last *job.Result
	b.Run("fast", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res, err := job.RunCtx(context.Background(), job.Config{
				Mode: Link, Workload: w, NTasks: ranks, Ranks: ranks,
				Workers: 1, Coverage: 0.02, RankSkew: skew, Seed: cfg.Seed,
			})
			if err != nil {
				b.Fatal(err)
			}
			last = res
		}
		b.ReportMetric(last.StartupSec, "sim-job-startup-s")
	})
	b.Run("baseline", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for r := 0; r < ranks; r++ {
				if _, err := job.RunCtx(context.Background(), job.Config{
					Mode: Link, Workload: w, NTasks: ranks, Ranks: 1,
					Coverage: 0.02, RankSkew: skew, Seed: cfg.Seed,
				}); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// BenchmarkJobParallelRanks is the end-to-end (informational, ungated)
// form of the scaling claim: a homogeneous 8-rank job with the worker
// pool wide open. Its 8 ranks are one rank class, so it simulates one
// representative and copies its metrics to the other 7: wall time sits
// near the 1-rank time on any core count. The skewed pair above is the
// one that measures 8 simulated ranks.
func BenchmarkJobParallelRanks(b *testing.B) {
	cfg := pygen.LLNLModel().Scaled(40)
	w, err := pygen.GenerateCtx(context.Background(), cfg)
	if err != nil {
		b.Fatal(err)
	}
	var last *job.Result
	for i := 0; i < b.N; i++ {
		res, err := job.RunCtx(context.Background(), job.Config{
			Mode: Link, Workload: w, NTasks: 8, Seed: cfg.Seed,
		})
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(last.Visit.P99, "sim-visit-p99-s")
}

// BenchmarkGenerate measures the generator itself at 1/10 scale.
func BenchmarkGenerate(b *testing.B) {
	cfg := pygen.LLNLModel().Scaled(10)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := pygen.GenerateCtx(context.Background(), cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMPITest runs the pyMPI functionality test at 32 ranks.
func BenchmarkMPITest(b *testing.B) {
	cl := cluster.Zeus()
	for i := 0; i < b.N; i++ {
		w, err := mpisim.NewWorld(32, mpisim.Config{
			Latency: cl.LinkLatency, Bandwidth: cl.LinkBandwidth, ChanDepth: 64,
		})
		if err != nil {
			b.Fatal(err)
		}
		if err := w.Run(func(c *mpisim.Comm) error {
			_, err := pympi.MPITest(c)
			return err
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// benchRepeatedConfig measures the host cost of the acceptance
// scenario for the Engine's workload cache: a 3-run sequence
// (generate + drive) over one repeated Config. The cached/uncached
// pair quantifies the cache's speedup; the equivalence suite proves
// the cached results are byte-identical.
func benchRepeatedConfig(b *testing.B, cacheSize int) {
	cfg := LLNLModel().Scaled(10)
	cfg.Seed = 2024
	eng, err := New(WithWorkloadCacheSize(cacheSize))
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for run := 0; run < 3; run++ {
			w, err := eng.GenerateCtx(ctx, cfg)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := eng.RunCtx(ctx, RunConfig{
				Mode: Vanilla, Workload: w, NTasks: 2, Coverage: 0.05, Seed: cfg.Seed,
			}); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkEngineRepeatedConfig_Cached(b *testing.B)   { benchRepeatedConfig(b, 8) }
func BenchmarkEngineRepeatedConfig_Uncached(b *testing.B) { benchRepeatedConfig(b, 0) }
