package experiments

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/driver"
	"repro/internal/fsim"
	"repro/internal/job"
	"repro/internal/pygen"
	"repro/internal/runner"
	"repro/internal/toolsim"
)

// This file defines the paper's sweeps and ablations as single-cell
// functions over (ctx, params, seed) — the unit the runner's worker
// pool executes and caches.

// ParseMode maps a CLI-style mode key to a build mode. It accepts the
// flag spellings ("vanilla", "link", "link-bind"/"linkbind") and the
// Table I row labels ("Vanilla", "Link", "Link+Bind").
func ParseMode(s string) (driver.BuildMode, error) {
	switch strings.ToLower(s) {
	case "vanilla":
		return driver.Vanilla, nil
	case "link":
		return driver.Link, nil
	case "link-bind", "linkbind", "link+bind":
		return driver.LinkBind, nil
	}
	return 0, fmt.Errorf("unknown build mode %q (want vanilla, link, or link-bind)", s)
}

// ModeKey is the inverse of ParseMode: the CLI/grid spelling of a
// build mode.
func ModeKey(m driver.BuildMode) string {
	switch m {
	case driver.Vanilla:
		return "vanilla"
	case driver.Link:
		return "link"
	case driver.LinkBind:
		return "link-bind"
	}
	return "invalid"
}

// seededLLNL returns the LLNL workload model, with the cell seed
// substituted when nonzero (seed 0 is the paper-default sentinel).
func seededLLNL(seed uint64) pygen.Config {
	cfg := pygen.LLNLModel()
	if seed != 0 {
		cfg.Seed = seed
	}
	return cfg
}

func driverMetrics(m *driver.Metrics) runner.Metrics {
	return runner.Metrics{
		"startup_sec": m.StartupSec,
		"import_sec":  m.ImportSec,
		"visit_sec":   m.VisitSec,
		"total_sec":   m.TotalSec(),
	}
}

// cellMode reads the required "mode" parameter of a cell. Errors name
// the experiment and the cell's canonical grid point, so a typo in one
// grid entry is localized to that entry.
func cellMode(cell string, p runner.Params) (driver.BuildMode, error) {
	s, err := p.RequireStr(cell, "mode")
	if err != nil {
		return 0, err
	}
	m, err := ParseMode(s)
	if err != nil {
		return 0, fmt.Errorf("experiment %q cell %s: %w", cell, p.Canonical(), err)
	}
	return m, nil
}

// cellInt reads a required integer cell parameter: a grid point without
// it is malformed, so absence is an error, never a zero default. Like
// cellMode, errors carry the experiment name and the canonical cell.
func cellInt(cell, key string, p runner.Params, min int) (int, error) {
	v, err := p.RequireInt(cell, key)
	if err != nil {
		return 0, err
	}
	if v < min {
		return 0, fmt.Errorf("experiment %q cell %s: %s must be >= %d, got %d",
			cell, p.Canonical(), key, min, v)
	}
	return v, nil
}

// dllCountCell is one S1 point: DSO count p["dsos"] at fixed per-DSO
// size, run in build mode p["mode"].
func dllCountCell(ctx context.Context, p runner.Params, seed uint64) (runner.Metrics, error) {
	mode, err := cellMode("dllcount", p)
	if err != nil {
		return nil, err
	}
	n, err := cellInt("dllcount", "dsos", p, 1)
	if err != nil {
		return nil, err
	}
	cfg := seededLLNL(seed)
	cfg.NumModules = (n*57 + 50) / 100 // keep the 57% module fraction
	if cfg.NumModules < 1 {
		cfg.NumModules = 1
	}
	cfg.NumUtils = n - cfg.NumModules
	cfg.AvgFuncsPerModule = 200
	cfg.AvgFuncsPerUtil = 200
	w, err := pygen.GenerateCtx(ctx, cfg)
	if err != nil {
		return nil, err
	}
	m, err := driver.RunCtx(ctx, driver.Config{Mode: mode, Workload: w, NTasks: 32, Seed: cfg.Seed})
	if err != nil {
		return nil, err
	}
	return driverMetrics(m), nil
}

// dllSizeCell is one S2 point: p["funcs"] functions per DSO at fixed
// DSO count, run in build mode p["mode"].
func dllSizeCell(ctx context.Context, p runner.Params, seed uint64) (runner.Metrics, error) {
	mode, err := cellMode("dllsize", p)
	if err != nil {
		return nil, err
	}
	nf, err := cellInt("dllsize", "funcs", p, 1)
	if err != nil {
		return nil, err
	}
	cfg := seededLLNL(seed)
	cfg.NumModules = 16
	cfg.NumUtils = 12
	cfg.AvgFuncsPerModule = nf
	cfg.AvgFuncsPerUtil = nf
	w, err := pygen.GenerateCtx(ctx, cfg)
	if err != nil {
		return nil, err
	}
	m, err := driver.RunCtx(ctx, driver.Config{Mode: mode, Workload: w, NTasks: 32, Seed: cfg.Seed})
	if err != nil {
		return nil, err
	}
	return driverMetrics(m), nil
}

// nfsCell is one S3 point: p["nodes"] nodes staging the generated DSO
// set independently from NFS versus via collective open.
func nfsCell(ctx context.Context, p runner.Params, seed uint64) (runner.Metrics, error) {
	nodes, err := cellInt("nfs", "nodes", p, 1)
	if err != nil {
		return nil, err
	}
	scaleDiv, err := cellInt("nfs", "scale_div", p, 1)
	if err != nil {
		return nil, err
	}
	cfg := seededLLNL(seed).Scaled(scaleDiv)
	w, err := pygen.GenerateCtx(ctx, cfg)
	if err != nil {
		return nil, err
	}

	// Independent: all nodes fault in every DSO concurrently.
	fsI, err := fsim.New(fsim.Defaults(), nodes)
	if err != nil {
		return nil, err
	}
	for _, img := range w.AllImages() {
		fsI.Create(img.Path, img.FileSize())
	}
	var worst float64
	for n := 0; n < nodes; n++ {
		var nodeTime float64
		for _, img := range w.AllImages() {
			secs, _, err := fsI.ReadBytes(n, img.Path, img.MappedSize(), nodes)
			if err != nil {
				return nil, err
			}
			nodeTime += secs
		}
		if nodeTime > worst {
			worst = nodeTime
		}
	}

	// Collective: root fetch + broadcast per DSO.
	fsC, err := fsim.New(fsim.Defaults(), nodes)
	if err != nil {
		return nil, err
	}
	ids := make([]int, nodes)
	for i := range ids {
		ids[i] = i
	}
	var coll float64
	for _, img := range w.AllImages() {
		fsC.Create(img.Path, img.FileSize())
		secs, err := fsC.CollectiveRead(ids, img.Path)
		if err != nil {
			return nil, err
		}
		coll += secs
	}
	return runner.Metrics{
		"independent_sec": worst,
		"collective_sec":  coll,
	}, nil
}

// jobDistCell is one J1 point: an N-rank job through the per-rank job
// engine, reporting per-rank phase-time distribution columns
// (min/mean/p99/max) instead of a single extrapolated rank. The
// optional rank_skew and straggler_frac knobs inject the heterogeneity
// whose tails the distributions exist to expose.
func jobDistCell(ctx context.Context, p runner.Params, seed uint64) (runner.Metrics, error) {
	tasks, err := cellInt("jobdist", "tasks", p, 1)
	if err != nil {
		return nil, err
	}
	mode, err := cellMode("jobdist", p)
	if err != nil {
		return nil, err
	}
	scaleDiv, err := cellInt("jobdist", "scale_div", p, 1)
	if err != nil {
		return nil, err
	}
	funcsDiv, err := cellInt("jobdist", "funcs_div", p, 1)
	if err != nil {
		return nil, err
	}
	cfg := seededLLNL(seed).Scaled(scaleDiv).ScaledFuncs(funcsDiv)
	w, err := pygen.GenerateCtx(ctx, cfg)
	if err != nil {
		return nil, err
	}
	res, err := job.RunCtx(ctx, job.Config{
		Mode:          mode,
		Workload:      w,
		NTasks:        tasks,
		RankSkew:      p.Float("rank_skew"),
		StragglerFrac: p.Float("straggler_frac"),
		// The runner's pool already runs cells in parallel; nesting a
		// GOMAXPROCS-wide rank pool inside it would multiply concurrent
		// substrate bundles without adding throughput.
		Workers: 1,
		Seed:    cfg.Seed,
	})
	if err != nil {
		return nil, err
	}
	return runner.Metrics{
		"startup_min_sec":  res.Startup.Min,
		"startup_mean_sec": res.Startup.Mean,
		"startup_p99_sec":  res.Startup.P99,
		"startup_max_sec":  res.Startup.Max,
		"visit_min_sec":    res.Visit.Min,
		"visit_mean_sec":   res.Visit.Mean,
		"visit_p99_sec":    res.Visit.P99,
		"visit_max_sec":    res.Visit.Max,
		// total_max_sec follows the *_max_sec pattern (max per-rank
		// total); total_job_sec is the barrier-gated job total (sum of
		// per-phase maxima), which exceeds it when different ranks are
		// slowest in different phases.
		"total_max_sec":   res.Total.Max,
		"total_job_sec":   res.TotalSec(),
		"ranks":           float64(len(res.Ranks)),
		"nodes_used":      float64(res.NodesUsed),
		"straggler_nodes": float64(len(res.StragglerNodes)),
	}, nil
}

// bindingCell is A1: the same workload's visit phase under lazy and
// eager binding.
func bindingCell(ctx context.Context, p runner.Params, seed uint64) (runner.Metrics, error) {
	scaleDiv, err := cellInt("binding", "scale_div", p, 1)
	if err != nil {
		return nil, err
	}
	cfg := seededLLNL(seed).Scaled(scaleDiv)
	w, err := pygen.GenerateCtx(ctx, cfg)
	if err != nil {
		return nil, err
	}
	lazy, err := driver.RunCtx(ctx, driver.Config{
		Mode: driver.Link, Workload: w, NTasks: 32, Seed: cfg.Seed,
	})
	if err != nil {
		return nil, err
	}
	eager, err := driver.RunCtx(ctx, driver.Config{
		Mode: driver.LinkBind, Workload: w, NTasks: 32, Seed: cfg.Seed,
	})
	if err != nil {
		return nil, err
	}
	return runner.Metrics{
		"lazy_visit_sec":   lazy.VisitSec,
		"eager_visit_sec":  eager.VisitSec,
		"lazy_resolutions": float64(lazy.Loader.LazyResolutions),
	}, nil
}

// coverageCell is one A2 point: the Link-build visit phase at code
// coverage p["coverage"].
func coverageCell(ctx context.Context, p runner.Params, seed uint64) (runner.Metrics, error) {
	frac, err := p.RequireFloat("coverage", "coverage")
	if err != nil {
		return nil, err
	}
	if frac <= 0 || frac > 1 {
		return nil, fmt.Errorf("experiment %q cell %s: fraction %v outside (0, 1]",
			"coverage", p.Canonical(), frac)
	}
	scaleDiv, err := cellInt("coverage", "scale_div", p, 1)
	if err != nil {
		return nil, err
	}
	cfg := seededLLNL(seed).Scaled(scaleDiv)
	w, err := pygen.GenerateCtx(ctx, cfg)
	if err != nil {
		return nil, err
	}
	m, err := driver.RunCtx(ctx, driver.Config{
		Mode: driver.Link, Workload: w, NTasks: 32, Coverage: frac, Seed: cfg.Seed,
	})
	if err != nil {
		return nil, err
	}
	return runner.Metrics{
		"visit_sec":     m.VisitSec,
		"funcs_visited": float64(m.FuncsVisited),
	}, nil
}

// aslrCell is A3: tool-attach phase 1 with homogeneous versus
// randomized (heterogeneous) link maps.
func aslrCell(ctx context.Context, p runner.Params, seed uint64) (runner.Metrics, error) {
	tasks, err := cellInt("aslr", "tasks", p, 1)
	if err != nil {
		return nil, err
	}
	scaleDiv, err := cellInt("aslr", "scale_div", p, 1)
	if err != nil {
		return nil, err
	}
	cfg := seededLLNL(seed).Scaled(scaleDiv)
	w, err := pygen.GenerateCtx(ctx, cfg)
	if err != nil {
		return nil, err
	}
	run := func(hetero bool) (float64, error) {
		fs, err := fsim.New(fsim.Defaults(), 4)
		if err != nil {
			return 0, err
		}
		ph, err := toolsim.AttachCtx(ctx, toolsim.Config{
			Workload: w, Tasks: tasks, FS: fs, HeterogeneousLinkMaps: hetero,
		})
		if err != nil {
			return 0, err
		}
		return ph.Phase1, nil
	}
	homo, err := run(false)
	if err != nil {
		return nil, err
	}
	hetero, err := run(true)
	if err != nil {
		return nil, err
	}
	return runner.Metrics{
		"homogeneous_phase1_sec":   homo,
		"heterogeneous_phase1_sec": hetero,
	}, nil
}
