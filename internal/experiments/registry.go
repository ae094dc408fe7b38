package experiments

import (
	"sync"

	"repro/internal/runner"
	"repro/internal/scenario"
)

// Default grids for the registered experiments, so the runner's full
// matrix covers the paper's §V studies out of the box. (To also
// reproduce the paper's workload numbers exactly, run with base seed
// 0 — the paper-default sentinel; any other seed reseeds the
// generator per repeat for variance estimates.)
var (
	defaultDLLCounts  = []int{8, 16, 32, 64, 128}
	defaultFuncCounts = []int{100, 200, 400, 800, 1600}
	defaultNodeCounts = []int{4, 16, 64, 256}
	defaultCoverages  = []float64{0.25, 0.5, 0.75, 1.0}
)

// Default workload scale divisors and job size for the S3/ablation
// studies — the single source of truth for the registry grids and the
// exported grid builders.
const (
	defaultNFSScaleDiv      = 20
	defaultAblationScaleDiv = 10
	defaultAblationTasks    = 32
)

func dllCountGrid(counts []int, modes []string) []runner.Params {
	if len(counts) == 0 {
		counts = defaultDLLCounts
	}
	var grid []runner.Params
	for _, mode := range modes {
		for _, n := range counts {
			grid = append(grid, runner.Params{"dsos": n, "mode": mode})
		}
	}
	return grid
}

func dllSizeGrid(funcs []int, modes []string) []runner.Params {
	if len(funcs) == 0 {
		funcs = defaultFuncCounts
	}
	var grid []runner.Params
	for _, mode := range modes {
		for _, nf := range funcs {
			grid = append(grid, runner.Params{"funcs": nf, "mode": mode})
		}
	}
	return grid
}

func nfsGrid(nodes []int, scaleDiv int) []runner.Params {
	if len(nodes) == 0 {
		nodes = defaultNodeCounts
	}
	if scaleDiv < 1 {
		scaleDiv = defaultNFSScaleDiv
	}
	var grid []runner.Params
	for _, n := range nodes {
		grid = append(grid, runner.Params{"nodes": n, "scale_div": scaleDiv})
	}
	return grid
}

func coverageGrid(fractions []float64, scaleDiv int) []runner.Params {
	if len(fractions) == 0 {
		fractions = defaultCoverages
	}
	if scaleDiv < 1 {
		scaleDiv = defaultAblationScaleDiv
	}
	var grid []runner.Params
	for _, f := range fractions {
		grid = append(grid, runner.Params{"coverage": f, "scale_div": scaleDiv})
	}
	return grid
}

var (
	registryOnce sync.Once
	registry     *runner.Registry
)

// RunnerRegistry returns the process-wide registry with every paper
// sweep and ablation registered as a runner experiment:
//
//	dllcount        S1 — scaling vs number of DLLs
//	dllsize         S2 — scaling vs DLL size
//	nfs             S3 — NFS loading vs collective open
//	jobdist         J1 — per-rank phase-time distributions (job engine)
//	ablate-binding  A1 — lazy vs eager binding
//	ablate-coverage A2 — the code-coverage extension
//	ablate-aslr     A3 — homogeneous vs randomized link maps
//
// plus the scenario catalog (internal/scenario) under scenario:* names.
func RunnerRegistry() *runner.Registry {
	registryOnce.Do(func() {
		registry = runner.NewRegistry()
		registry.MustRegister(&runner.Experiment{
			Name:        "dllcount",
			Description: "S1: driver phase times vs number of DLLs (vanilla + link builds)",
			Grid: func() []runner.Params {
				return dllCountGrid(nil, []string{"vanilla", "link"})
			},
			Run: dllCountCell,
		})
		registry.MustRegister(&runner.Experiment{
			Name:        "dllsize",
			Description: "S2: driver phase times vs functions per DLL (vanilla + link builds)",
			Grid: func() []runner.Params {
				return dllSizeGrid(nil, []string{"vanilla", "link"})
			},
			Run: dllSizeCell,
		})
		registry.MustRegister(&runner.Experiment{
			Name:        "nfs",
			Description: "S3: independent NFS DLL staging vs collective open across node counts",
			Grid: func() []runner.Params {
				return nfsGrid(nil, 0)
			},
			Run: nfsCell,
		})
		registry.MustRegister(&runner.Experiment{
			Name: "jobdist",
			Description: "J1: per-rank phase-time distributions from the job engine " +
				"(skewed + straggler heterogeneity)",
			Grid: func() []runner.Params {
				var grid []runner.Params
				for _, tasks := range []int{16, 64} {
					grid = append(grid, runner.Params{
						"tasks": tasks, "mode": "vanilla",
						"scale_div": 20, "funcs_div": 8,
						"rank_skew": 0.3, "straggler_frac": 0.25,
					})
				}
				return grid
			},
			Run: jobDistCell,
		})
		registry.MustRegister(&runner.Experiment{
			Name:        "ablate-binding",
			Description: "A1: visit phase under lazy vs eager binding",
			Grid: func() []runner.Params {
				return []runner.Params{{"scale_div": defaultAblationScaleDiv}}
			},
			Run: bindingCell,
		})
		registry.MustRegister(&runner.Experiment{
			Name:        "ablate-coverage",
			Description: "A2: visit phase at configurable code coverage",
			Grid: func() []runner.Params {
				return coverageGrid(nil, 0)
			},
			Run: coverageCell,
		})
		registry.MustRegister(&runner.Experiment{
			Name:        "ablate-aslr",
			Description: "A3: tool attach with homogeneous vs randomized link maps",
			Grid: func() []runner.Params {
				return []runner.Params{{
					"tasks":     defaultAblationTasks,
					"scale_div": defaultAblationScaleDiv,
				}}
			},
			Run: aslrCell,
		})
		scenario.Register(registry)
	})
	return registry
}
