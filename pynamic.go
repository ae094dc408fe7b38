// Package pynamic reproduces "Pynamic: the Python Dynamic Benchmark"
// (G. L. Lee, D. H. Ahn, B. R. de Supinski, J. Gyllenhaal, P. Miller;
// LLNL; IISWC 2007) as a simulation-backed Go library.
//
// Pynamic emulates the dynamic-linking behaviour of large Python-based
// HPC applications: a generator produces a configurable number of
// Python extension modules and utility libraries (hundreds of DSOs,
// hundreds of thousands of functions), and a driver imports every
// module, visits every generated function, and optionally runs a
// pyMPI-style MPI test, timing each phase.
//
// # Engine API (v1)
//
// The package's API is the long-lived Engine: construct one
// with New (functional options configure the seed policy, memory
// backend, cluster shape, workload-cache size, and event streaming),
// then drive it with context-aware methods:
//
//	eng, err := pynamic.New(pynamic.WithWorkloadCacheSize(16))
//	if err != nil { ... }
//	w, err := eng.GenerateCtx(ctx, pynamic.LLNLModel().Scaled(20))
//	if err != nil { ... }
//	res, err := eng.RunJobCtx(ctx, pynamic.JobConfig{
//		Mode:     pynamic.Vanilla,
//		Workload: w,
//		NTasks:   32,
//	})
//
// One Engine amortizes setup across runs: its content-hash-keyed
// workload cache makes repeated runs over the same Config skip
// regeneration, WithEvents streams deterministic progress events, and
// every method honors context cancellation (returning ErrCanceled)
// down through the job engine's rank workers and the experiment
// runner's cell pool. Failures are structured *Error values usable
// with errors.Is/As. cmd/pynamic-serve exposes a shared Engine over
// HTTP (POST /v1/specs, GET /v1/specs/{hash}, /v1/experiments,
// /v1/scenarios; POST /v1/jobs translates a typed job request into a
// spec).
//
// # Spec API (v1)
//
// Spec is the declarative layer over the Engine: one versioned,
// JSON-serializable, self-validating document describing any run the
// system executes — workload generation, build/run shape, job
// topology, scenario overlays with typed knob overrides, experiment
// matrices. Specs compose (With, Scaled, Profile), canonicalize, and
// content-hash (Hash — the job key of the serving layer and the
// identity the engine's caches share):
//
//	spec := pynamic.MustProfile("llnl").With(pynamic.Spec{
//		Kind:     pynamic.SpecJob,
//		Topology: &pynamic.TopologySpec{Tasks: 64, Ranks: 64},
//	}).Scaled(20)
//	res, err := eng.RunSpecCtx(ctx, spec)
//
// A spec-driven execution is byte-identical to the corresponding
// typed-struct call (equivalence-gated), and every CLI invocation is
// reproducible as a document (pynamic -dump-spec / -spec). The
// scenario catalog is public through Scenarios(), with typed knobs.
//
// Everything is simulated: the dynamic linker, the caches, the NFS
// filesystem, the MPI fabric and the debugger are deterministic models
// of the paper's Zeus cluster, so results are reproducible bit-for-bit
// from a seed. See DESIGN.md for the substitution table and
// EXPERIMENTS.md for measured-vs-paper numbers.
package pynamic

import (
	"repro/internal/driver"
	"repro/internal/experiments"
	"repro/internal/job"
	"repro/internal/pygen"
	"repro/internal/toolsim"
)

// Config is the generator configuration (§III of the paper): module
// and utility-library counts, average functions per DSO, RNG seed,
// call-chain depth, and feature toggles.
type Config = pygen.Config

// SizeModel controls symbol-name and section-size distributions.
type SizeModel = pygen.SizeModel

// Workload is a generated benchmark: the pyMPI executable image plus
// the module and utility DSOs. Workloads are immutable once generated;
// the Engine's workload cache shares them across runs.
type Workload = pygen.Workload

// LLNLModel returns the paper's flagship configuration: 280 Python
// modules + 215 utility libraries averaging 1850 functions each,
// modelling an LLNL multiphysics application (§IV).
func LLNLModel() Config { return pygen.LLNLModel() }

// RealAppModel returns the synthetic stand-in for the real
// (export-controlled) multiphysics application, used by the Table IV
// comparison.
func RealAppModel() Config { return pygen.RealAppModel() }

// DefaultSizeModel returns the size distributions calibrated to Table
// III's Pynamic column.
func DefaultSizeModel() SizeModel { return pygen.DefaultSizeModel() }

// BuildMode selects the paper's build/run configuration.
type BuildMode = driver.BuildMode

// Build modes (Table I rows).
const (
	// Vanilla imports every module via dlopen(RTLD_NOW) at import time.
	Vanilla = driver.Vanilla
	// Link pre-links every generated DSO into the pyMPI executable.
	Link = driver.Link
	// LinkBind is Link with LD_BIND_NOW=1.
	LinkBind = driver.LinkBind
)

// MemBackend selects memory-model fidelity.
type MemBackend = driver.MemBackend

// Memory backends.
const (
	// Analytic is the fast O(1)-per-event model (use at paper scale).
	Analytic = driver.Analytic
	// Detailed is the line-accurate cache simulation (use scaled down).
	Detailed = driver.Detailed
)

// RunConfig configures a driver run.
type RunConfig = driver.Config

// Metrics is a driver run's report: Table I phase times and Table II
// cache-miss counts, plus substrate statistics.
type Metrics = driver.Metrics

// JobConfig configures a per-rank job-engine run: N simulated ranks on
// their real placement nodes, with per-rank distributions and
// heterogeneity knobs (rank skew, straggler nodes, warm nodes).
type JobConfig = job.Config

// JobResult is a completed job: per-rank metrics plus job phase times
// gated by the slowest rank (MPI barrier semantics).
type JobResult = job.Result

// RankMetrics is one simulated rank's per-phase report.
type RankMetrics = job.RankMetrics

// RankDist summarizes a per-rank metric distribution
// (min/mean/max/p99/std).
type RankDist = job.Dist

// ToolCostModel is the §II.B.3 closed form M×N×(T1 + B×T2).
type ToolCostModel = toolsim.CostModel

// PaperCostExample returns the in-text example (500 libraries, 500
// tasks, 10ms events, 10 breakpoints, 1ms reinserts ≈ 83 minutes).
func PaperCostExample() ToolCostModel { return toolsim.PaperExample() }

// ToolStartupConfig configures a simulated debugger attach (Table IV).
type ToolStartupConfig = toolsim.Config

// ToolStartupPhases is a Table IV column.
type ToolStartupPhases = toolsim.Phases

// ExperimentOptions scales the experiment harnesses.
type ExperimentOptions = experiments.Options
