// Command pynamic generates a benchmark workload and runs the Pynamic
// driver, in the spirit of the original LLNL tool's command line:
//
//	pynamic -modules 280 -avg-funcs 1850 -utils 215 -avg-ufuncs 1850 \
//	        -seed 42 -mode vanilla -tasks 32
//
// It prints the generated workload's footprint and the driver's
// per-phase simulated times and cache counters.
//
// With -ranks (or any heterogeneity knob) it runs the per-rank job
// engine instead of the rank-0 extrapolation: every simulated rank gets
// its own substrate bundle on its real placement node, and the output
// reports per-rank phase-time distributions (min/mean/p99/max, job
// phase = slowest rank):
//
//	pynamic -scale 20 -tasks 64 -ranks 0 -placement round-robin \
//	        -rank-skew 0.3 -straggler-frac 0.25
//
// Every invocation is internally a declarative run Spec (the v1 Spec
// API), which makes any run reproducible as a document:
//
//	pynamic -scale 20 -tasks 64 -dump-spec > run.json   # flags → spec
//	pynamic -spec run.json                              # identical run
//	pynamic -spec run.json -dry-run                     # validate + hash
//
// -spec accepts any spec kind — run, job, matrix, scenario (with
// overridden knobs), tool — and "-" reads the spec from stdin. The
// canonical hash printed by -dry-run is the same key the Engine's
// caches and the pynamic-serve /v1/specs endpoint use.
//
// -rank-json writes the full per-rank result as JSON; at a fixed seed
// the bytes are identical for any -rank-workers value (the CI
// determinism smoke relies on this).
//
// The command is a thin client of the v1 Engine API: one
// pynamic.Engine per invocation, context-aware calls throughout, so
// Ctrl-C cancels the simulation cleanly (exit status 130).
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"

	pynamic "repro"
	"repro/internal/report"
	"repro/internal/runner"
	"repro/internal/simtime"
)

func main() {
	var (
		modules   = flag.Int("modules", 280, "number of Python modules to generate")
		avgFuncs  = flag.Int("avg-funcs", 1850, "average functions per module")
		utils     = flag.Int("utils", 215, "number of utility libraries")
		avgUFuncs = flag.Int("avg-ufuncs", 1850, "average functions per utility library")
		seed      = flag.Uint64("seed", 42, "generator seed (0 = the workload model's default seed)")
		depth     = flag.Int("depth", 10, "maximum call-chain depth")
		cross     = flag.Bool("cross-module", true, "enable cross-module dependencies")
		coverage  = flag.Float64("coverage", 1.0, "fraction of entry chains visited")
		mode      = flag.String("mode", "vanilla", "build mode: vanilla, link, link-bind")
		tasks     = flag.Int("tasks", 32, "MPI tasks")
		mpiTest   = flag.Bool("mpi-test", true, "run the pyMPI functionality test")
		detailed  = flag.Bool("detailed", false, "use the line-accurate cache model (reduce scale!)")
		aslr      = flag.Bool("aslr", false, "randomize load addresses (exec-shield)")
		scale     = flag.Int("scale", 1, "divide DSO counts by this factor")
		manifest  = flag.String("manifest", "", "write the workload manifest (JSON) to this file")
		scenarios = flag.Bool("scenarios", false, "list the scenario catalog and exit")
		events    = flag.Bool("events", false, "stream engine progress events to stderr")

		specFile = flag.String("spec", "", "run this spec document instead of the flag configuration ('-' = stdin)")
		dumpSpec = flag.Bool("dump-spec", false, "print the invocation as a spec document and exit")
		dryRun   = flag.Bool("dry-run", false, "validate and resolve the spec, print kind and canonical hash, and exit")

		ranks        = flag.Int("ranks", 1, "simulated ranks: 1 = legacy rank-0 extrapolation, 0 = every task, N = first N tasks")
		placement    = flag.String("placement", "block", "task placement policy: block or round-robin")
		rankSkew     = flag.Float64("rank-skew", 0, "max fractional per-rank CPU slowdown (seeded)")
		stragglers   = flag.Float64("straggler-frac", 0, "fraction of nodes with degraded I/O (seeded)")
		stragglerIO  = flag.Float64("straggler-io-scale", 4, "I/O time multiplier on straggler nodes")
		warmNodes    = flag.Float64("warm-node-frac", 0, "fraction of nodes starting with warm buffer caches (seeded)")
		rankWorkers  = flag.Int("rank-workers", 0, "goroutines simulating ranks (0 = GOMAXPROCS; never affects results)")
		relocWorkers = flag.Int("reloc-workers", 0, "goroutines resolving each rank's relocation batches (≤1 = serial; never affects results)")
		rankJSON     = flag.String("rank-json", "", "write the full per-rank job result (JSON) to this file")
	)
	flag.Parse()

	if *scenarios {
		fmt.Println("scenario catalog (run with: pynamic-runner -experiments <name>, or a kind=scenario spec):")
		for _, s := range pynamic.Scenarios() {
			fmt.Printf("  %-26s %s (%d grid points)\n", s.Experiment, s.Description, s.GridPoints)
		}
		return
	}

	var spec pynamic.Spec
	if *specFile != "" {
		var err error
		if spec, err = loadSpec(*specFile); err != nil {
			fmt.Fprintln(os.Stderr, "pynamic:", err)
			os.Exit(2)
		}
	} else {
		// The flag configuration IS a spec: build it once and run the
		// document, so `pynamic <flags> -dump-spec | pynamic -spec -`
		// reproduces the flag-driven run bit for bit.
		if *seed == 0 {
			// Spec semantics (repo-wide): seed 0 is the "model default"
			// sentinel, not a literal zero seed. Surface the resolution
			// for anyone reproducing an old literal-seed-0 run.
			fmt.Fprintln(os.Stderr, "pynamic: -seed 0 selects the workload model's default seed")
		}
		utilsVal, crossVal := *utils, *cross
		top := pynamic.TopologySpec{
			Tasks:     *tasks,
			Placement: *placement,
			MPITest:   *mpiTest,
			Coverage:  *coverage,
			ASLR:      *aslr,
		}
		kind := pynamic.SpecRun
		if *ranks != 1 || *placement != "block" || *rankSkew > 0 ||
			*stragglers > 0 || *warmNodes > 0 || *rankJSON != "" {
			kind = pynamic.SpecJob
			top.Ranks = *ranks
			top.RankSkew = *rankSkew
			top.StragglerFrac = *stragglers
			top.StragglerIOScale = *stragglerIO
			top.WarmNodeFrac = *warmNodes
		}
		build := pynamic.BuildSpec{Mode: *mode}
		if *detailed {
			build.Backend = "detailed"
		}
		spec = pynamic.Spec{
			Version: pynamic.SpecVersion,
			Kind:    kind,
			Seed:    *seed,
			Workers: *rankWorkers,
			Workload: &pynamic.WorkloadSpec{
				Modules:      *modules,
				AvgFuncs:     *avgFuncs,
				Utils:        &utilsVal,
				AvgUtilFuncs: *avgUFuncs,
				ScaleDiv:     *scale,
				Depth:        *depth,
				CrossModule:  &crossVal,
			},
			Build:    &build,
			Topology: &top,
		}
	}

	if *dumpSpec {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(spec); err != nil {
			fatal(err)
		}
		return
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	var opts []pynamic.Option
	if *events {
		opts = append(opts, pynamic.WithEvents(func(ev pynamic.Event) {
			fmt.Fprintf(os.Stderr, "event %s[%d] %s phase=%q rank=%d sec=%.4f\n",
				ev.Op, ev.Seq, ev.Kind, ev.Phase, ev.Rank, ev.Sec)
		}))
	}
	eng, err := pynamic.New(opts...)
	if err != nil {
		fatal(err)
	}

	exp, err := eng.ExpandSpec(spec)
	if err != nil {
		fmt.Fprintln(os.Stderr, err) // *pynamic.Error already carries the prefix
		os.Exit(2)
	}
	if *dryRun {
		fmt.Printf("spec ok: kind=%s hash=%s\n", exp.Kind, exp.Hash)
		return
	}

	switch exp.Kind {
	case pynamic.SpecRun, pynamic.SpecJob:
		w := generate(ctx, eng, *exp.Gen, *manifest)
		if exp.Kind == pynamic.SpecRun {
			// -reloc-workers is an execution knob like -rank-workers: set
			// post-expansion so it never enters the spec or its hash.
			rc := *exp.Run
			rc.RelocWorkers = *relocWorkers
			exp.Run = &rc
			runDriver(ctx, eng, exp, w)
		} else {
			jc := *exp.Job
			jc.Workload = w
			jc.RelocWorkers = *relocWorkers
			runPerRank(ctx, eng, jc, *rankJSON)
		}
	case pynamic.SpecTool:
		res, err := eng.RunSpecCtx(ctx, spec)
		if err != nil {
			fatal(err)
		}
		fmt.Print(res.Tool.Render())
	case pynamic.SpecScenario:
		res, err := eng.RunSpecCtx(ctx, spec)
		if err != nil {
			fatal(err)
		}
		fmt.Print(runner.RenderExperiment(*res.Experiment))
	case pynamic.SpecMatrix:
		res, err := eng.RunSpecCtx(ctx, spec)
		if err != nil {
			// A canceled matrix still reports its completed cells.
			if res == nil || !errors.Is(err, pynamic.ErrCanceled) {
				fatal(err)
			}
		}
		for _, er := range res.Matrix.Experiments {
			fmt.Print(runner.RenderExperiment(er))
		}
		if res.Matrix.Canceled {
			fmt.Println("matrix canceled: results cover completed cells only")
			os.Exit(130)
		}
	}
}

// loadSpec reads a spec document from path ("-" = stdin), strictly.
func loadSpec(path string) (pynamic.Spec, error) {
	if path == "-" {
		return pynamic.ReadSpec(os.Stdin)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return pynamic.Spec{}, err
	}
	return pynamic.ParseSpec(data)
}

// generate materializes the spec's workload (through the engine's
// workload cache) and prints its footprint.
func generate(ctx context.Context, eng *pynamic.Engine, cfg pynamic.Config, manifest string) *pynamic.Workload {
	fmt.Printf("generating %d modules + %d utility libraries (avg %d functions, seed %d)...\n",
		cfg.NumModules, cfg.NumUtils, cfg.AvgFuncsPerModule, cfg.Seed)
	w, err := eng.GenerateCtx(ctx, cfg)
	if err != nil {
		fatal(err)
	}
	s := w.Sizes()
	fmt.Printf("  %d DSOs, %d functions, %.0f MB total (text %.0f, debug %.0f, strtab %.0f)\n",
		len(w.AllImages()), w.TotalFuncs(), mb(s.Total()), mb(s.Text), mb(s.Debug), mb(s.StrTab))
	if manifest != "" {
		f, err := os.Create(manifest)
		if err != nil {
			fatal(err)
		}
		if err := w.WriteManifest(f); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("  manifest written to %s\n", manifest)
	}
	return w
}

// runDriver executes the single-rank driver path and prints the
// legacy report.
func runDriver(ctx context.Context, eng *pynamic.Engine, exp *pynamic.SpecExpansion, w *pynamic.Workload) {
	rc := *exp.Run
	rc.Workload = w
	fmt.Printf("running driver: %s build, %d tasks...\n", rc.Mode, rc.NTasks)
	m, err := eng.RunCtx(ctx, rc)
	if err != nil {
		fatal(err)
	}

	fmt.Printf("\nPynamic driver results (simulated seconds):\n")
	fmt.Printf("  startup  %10s\n", simtime.Seconds(m.StartupSec))
	fmt.Printf("  import   %10s   (%d modules)\n", simtime.Seconds(m.ImportSec), m.ModulesImported)
	fmt.Printf("  visit    %10s   (%d function calls)\n", simtime.Seconds(m.VisitSec), m.FuncsVisited)
	if rc.RunMPITest {
		fmt.Printf("  mpi test %10.4f\n", m.MPISec)
	}
	fmt.Printf("  total    %10s\n", simtime.Seconds(m.TotalSec()))
	fmt.Printf("\ncache activity (millions):\n")
	fmt.Printf("  import: L1-D %.1f  L1-I %.2f  L2 %.1f\n",
		m.Import.L1DMissM, m.Import.L1IMissM, m.Import.L2MissM)
	fmt.Printf("  visit:  L1-D %.1f  L1-I %.2f  L2 %.1f\n",
		m.Visit.L1DMissM, m.Visit.L1IMissM, m.Visit.L2MissM)
	fmt.Printf("\nloader: %d dlopens (%d fresh, %d cached), %d lookups, %d lazy resolutions\n",
		m.Loader.DlopenCalls, m.Loader.FreshLoads, m.Loader.CachedOpens,
		m.Loader.Lookups, m.Loader.LazyResolutions)
	fmt.Printf("fs: %d NFS reads (%.0f MB), %d cache hits\n",
		m.FS.NFSReads, mb(m.FS.NFSBytes), m.FS.CacheHits)
}

// runPerRank executes the per-rank job engine and prints the per-rank
// distribution table.
func runPerRank(ctx context.Context, eng *pynamic.Engine, cfg pynamic.JobConfig, rankJSON string) {
	nRanks := cfg.Ranks
	if nRanks == 0 {
		nRanks = cfg.NTasks
	}
	fmt.Printf("running job engine: %s build, %d tasks (%d simulated ranks, %s placement)...\n",
		cfg.Mode, cfg.NTasks, nRanks, cfg.Placement)
	res, err := eng.RunJobCtx(ctx, cfg)
	if err != nil {
		fatal(err)
	}

	t := &report.Table{
		Title:  "per-rank phase times (simulated seconds, min/mean/p99/max)",
		Header: []string{"phase", "distribution", "job (slowest rank)"},
	}
	row := func(name string, d pynamic.RankDist, jobSec float64) {
		t.AddRow(name, report.Dist(d.Min, d.Mean, d.P99, d.Max),
			simtime.Seconds(jobSec))
	}
	row("startup", res.Startup, res.StartupSec)
	row("import", res.Import, res.ImportSec)
	row("visit", res.Visit, res.VisitSec)
	row("total", res.Total, res.TotalSec())
	t.AddNote("%d ranks over %d nodes; job phase time is the slowest rank's (MPI barrier semantics)",
		len(res.Ranks), res.NodesUsed)
	if len(res.StragglerNodes) > 0 {
		t.AddNote("straggler nodes: %v", res.StragglerNodes)
	}
	if len(res.WarmNodes) > 0 {
		t.AddNote("warm nodes: %v", res.WarmNodes)
	}
	fmt.Print(t.Render())
	if cfg.RunMPITest {
		fmt.Printf("  mpi test %.4fs\n", res.MPISec)
	}

	if rankJSON != "" {
		f, err := os.Create(rankJSON)
		if err != nil {
			fatal(err)
		}
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		if err := enc.Encode(res); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("  per-rank result written to %s\n", rankJSON)
	}
}

func mb(b uint64) float64 { return float64(b) / 1e6 }

func fatal(err error) {
	if errors.Is(err, pynamic.ErrCanceled) {
		fmt.Fprintln(os.Stderr, "pynamic: canceled")
		os.Exit(130)
	}
	fmt.Fprintln(os.Stderr, "pynamic:", err)
	os.Exit(1)
}
