// Command pynamic-sweep runs the paper's §V future-work scaling
// studies as declarative matrix specs on the v1 Engine API:
//
//	pynamic-sweep -dim dlls     # S1: scaling vs number of DLLs
//	pynamic-sweep -dim size     # S2: scaling vs DLL size
//	pynamic-sweep -dim nodes    # S3: NFS loading vs collective open
//	pynamic-sweep -dim coverage # A2: the code-coverage extension
//
// Each invocation builds a kind="matrix" Spec (print it with
// -dump-spec; the document runs identically through `pynamic -spec`
// or POST /v1/specs) and executes it with Engine.RunSpecCtx, so
// results are deterministic in (grid, seed) for any -workers value and
// Ctrl-C cancels the matrix cleanly (exit status 130). -workers,
// -repeats, -seed, and -cache control the pool; tabulated values are
// means across repeats. For full-matrix runs with structured
// artifacts, use pynamic-runner.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"

	pynamic "repro"
	"repro/internal/experiments"
	"repro/internal/report"
)

func main() {
	var (
		dim      = flag.String("dim", "dlls", "sweep dimension: dlls, size, nodes, coverage")
		mode     = flag.String("mode", "vanilla", "build mode for dlls/size sweeps")
		points   = flag.String("points", "", "comma-separated sweep points (defaults per dimension)")
		scale    = flag.Int("scale", 20, "workload scale divisor for nodes/coverage sweeps")
		workers  = flag.Int("workers", 0, "worker goroutines (0 = GOMAXPROCS)")
		repeats  = flag.Int("repeats", 1, "repeats per sweep point (tabulated values are means; repeats only vary with a nonzero -seed)")
		seed     = flag.Uint64("seed", 0, "base seed (0 = paper-default workload seed, making all repeats identical)")
		cache    = flag.Bool("cache", false, "enable the on-disk result cache")
		cacheDir = flag.String("cache-dir", ".pynamic-cache", "result cache directory (with -cache)")
		dumpSpec = flag.Bool("dump-spec", false, "print the sweep as a spec document and exit")
	)
	flag.Parse()

	bm, err := pynamic.ParseBuildMode(*mode)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pynamic-sweep:", err)
		os.Exit(2)
	}

	// Map the sweep dimension onto its registry experiment and grid.
	var experiment string
	var grid []pynamic.Params
	switch *dim {
	case "dlls":
		experiment = "dllcount"
		grid = experiments.DLLCountGrid(parseInts(*points), bm)
	case "size":
		experiment = "dllsize"
		grid = experiments.DLLSizeGrid(parseInts(*points), bm)
	case "nodes":
		experiment = "nfs"
		grid = experiments.NFSGrid(parseInts(*points), *scale)
	case "coverage":
		experiment = "ablate-coverage"
		grid = experiments.CoverageGrid(parseFloats(*points), *scale)
	default:
		fmt.Fprintf(os.Stderr, "pynamic-sweep: unknown dimension %q\n", *dim)
		os.Exit(2)
	}

	spec := pynamic.Spec{
		Version: pynamic.SpecVersion,
		Kind:    pynamic.SpecMatrix,
		Name:    "sweep-" + *dim,
		Seed:    *seed,
		Workers: *workers,
		Matrix: &pynamic.MatrixPlan{
			Experiments: []string{experiment},
			Grids:       map[string][]pynamic.Params{experiment: grid},
			Repeats:     *repeats,
		},
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

	eng, err := pynamic.New()
	if err != nil {
		fatal(err)
	}
	// Expand the spec document, then execute its resolved matrix. The
	// result cache is an execution option (never part of the document
	// or its hash), so it rides on the typed call.
	exp, err := eng.ExpandSpec(spec)
	if err != nil {
		fatal(err)
	}
	ms := *exp.Matrix
	if *cache {
		c, err := pynamic.NewDiskResultCache(*cacheDir)
		if err != nil {
			fatal(err)
		}
		ms.Cache = c
	}
	mr, err := eng.RunMatrixCtx(ctx, ms)
	if err != nil {
		fatal(err)
	}

	aggs := mr.Experiments[0].Aggregates
	switch *dim {
	case "dlls":
		fmt.Print(experiments.SweepDLLCountResult(bm, aggs).Render())
	case "size":
		fmt.Print(experiments.SweepDLLSizeResult(bm, aggs).Render())
	case "nodes":
		r := experiments.NFSSweepResultFrom(aggs)
		fmt.Print(r.Render())
		fmt.Print(report.RenderChecks(r.Checks()))
	case "coverage":
		t := &report.Table{
			Title:  "A2: code coverage extension (Link build visit phase)",
			Header: []string{"coverage", "visit (s)", "functions visited"},
		}
		for _, p := range experiments.CoveragePointsFrom(aggs) {
			t.AddRow(fmt.Sprintf("%.0f%%", p.Coverage*100),
				fmt.Sprintf("%.3f", p.VisitSec),
				fmt.Sprintf("%d", p.FuncsVisited))
		}
		fmt.Print(t.Render())
	}
}

func parseInts(s string) []int {
	if s == "" {
		return nil
	}
	var out []int
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			fatal(fmt.Errorf("bad point %q: %w", part, err))
		}
		out = append(out, v)
	}
	return out
}

func parseFloats(s string) []float64 {
	if s == "" {
		return nil
	}
	var out []float64
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil {
			fatal(fmt.Errorf("bad point %q: %w", part, err))
		}
		out = append(out, v)
	}
	return out
}

func fatal(err error) {
	if errors.Is(err, pynamic.ErrCanceled) {
		fmt.Fprintln(os.Stderr, "pynamic-sweep: canceled")
		os.Exit(130)
	}
	fmt.Fprintln(os.Stderr, "pynamic-sweep:", err)
	os.Exit(1)
}
