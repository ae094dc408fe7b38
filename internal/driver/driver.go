// Package driver is the Pynamic driver (§III): the program that imports
// every generated module, executes every module's entry function, and
// optionally runs the pyMPI functionality test, gathering per-phase
// metrics — "the job startup time, module import time, function visit
// time, and the MPI test time".
//
// The driver supports the paper's three build/run configurations
// (§III-IV):
//
//   - Vanilla: a stock pyMPI; every `import` dlopen()s the module with
//     RTLD_NOW at import time.
//   - Link: all generated shared objects are linked into the pyMPI
//     executable at build time, so program startup maps everything with
//     lazy PLT binding, imports find the objects already linked (the
//     cheap-but-not-free dlopen path), and the visit phase pays the
//     lazy resolver.
//   - LinkBind: Link plus LD_BIND_NOW=1, shifting PLT resolution into
//     program startup.
//
// Phase times are simulated seconds: CPU cycles from the memory model
// (instructions + cache-miss penalties at the Zeus core's 2.4 GHz) plus
// simulated file I/O, plus simulated network time for the MPI test.
//
// RunCtx executes a 1-rank job on the per-rank job engine
// (internal/job) — the paper's "simulate rank 0 of a symmetric job and
// extrapolate" methodology — and reports that rank's metrics as a
// Metrics, the shape Table I, the sweeps and the run spec kind
// serialize. Multi-rank simulations with real placements, per-rank
// distributions, and heterogeneity knobs go through job.RunCtx
// directly.
package driver

import (
	"context"
	"fmt"

	"repro/internal/api"
	"repro/internal/cluster"
	"repro/internal/dynld"
	"repro/internal/fsim"
	"repro/internal/job"
	"repro/internal/memsim"
	"repro/internal/pygen"
	"repro/internal/pyvm"
)

// BuildMode selects the paper's build/run configuration. It aliases the
// job engine's Mode, so the two vocabularies interoperate.
type BuildMode = job.Mode

// Build modes, in Table I row order.
const (
	Vanilla  = job.Vanilla
	Link     = job.Link
	LinkBind = job.LinkBind
)

// MemBackend selects the memory-model fidelity.
type MemBackend = job.Backend

// Memory backends.
const (
	// Analytic is the fast model; required for paper-scale workloads.
	Analytic = job.Analytic
	// Detailed is the line-accurate model; use at reduced scale.
	Detailed = job.Detailed
)

// Config configures a driver run.
type Config struct {
	Mode     BuildMode
	Backend  MemBackend
	Workload *pygen.Workload

	// NTasks is the MPI job size; it drives filesystem contention (all
	// tasks start and load concurrently) and the MPI test world size.
	NTasks int

	Cluster cluster.Config
	Mem     memsim.Config
	FS      fsim.Config

	// RunMPITest enables the pyMPI functionality test phase.
	RunMPITest bool
	// Coverage is the fraction of entry chains visited (§V extension).
	Coverage float64
	// ASLR randomizes load addresses (§II.B.2 exec-shield discussion).
	ASLR bool
	// WarmFS skips dropping node buffer caches before the run.
	WarmFS bool
	// SharedFS reuses a caller-provided filesystem (for cold/warm
	// sequences); when nil a fresh one is created.
	SharedFS *fsim.FS
	// NoFastPath selects the job engine's reference path (see
	// job.Config.NoFastPath): no loader symbol-lookup fast path, no
	// shared first-definer index and no rank classes, which a 1-rank
	// run never forms anyway. Simulated results are unchanged. Used by
	// equivalence tests and the before/after benchmarks.
	NoFastPath bool
	// RelocWorkers bounds goroutine parallelism within relocation
	// batches (see dynld.Options.RelocWorkers; ≤1 = serial). An
	// execution knob: results are byte-identical at any value.
	RelocWorkers int

	// Events, when non-nil, receives the underlying 1-rank job's
	// streaming progress events (see job.Config.Events).
	Events api.Sink `json:"-"`

	Seed uint64
}

// PhaseCounters is a Table II cell pair: memory activity in one phase.
type PhaseCounters = job.PhaseCounters

// Metrics is one driver run's report: the Table I row and the Table II
// cells, plus substrate statistics.
type Metrics struct {
	Mode BuildMode

	// Table I: seconds per phase.
	StartupSec float64
	ImportSec  float64
	VisitSec   float64
	MPISec     float64

	// Table II: cache activity per phase.
	Startup PhaseCounters
	Import  PhaseCounters
	Visit   PhaseCounters

	Loader dynld.Stats
	VM     pyvm.Stats
	FS     fsim.Stats

	ModulesImported int
	FuncsVisited    uint64

	// Kernel reports host-side simulation-kernel counters (batched
	// relocations, arena accounting). Excluded from serialization so
	// committed goldens only record simulated results.
	Kernel dynld.KernelStats `json:"-"`
}

// TotalSec returns the Table I "total" column (startup+import+visit —
// the paper's total excludes the MPI test).
func (m *Metrics) TotalSec() float64 {
	return m.StartupSec + m.ImportSec + m.VisitSec
}

// RunCtx executes the driver — a 1-rank job — and returns its metrics.
// Cancellation is plumbed through the job engine's rank pipeline (see
// job.RunCtx): canceling ctx mid-run returns an error wrapping
// api.ErrCanceled.
func RunCtx(ctx context.Context, cfg Config) (*Metrics, error) {
	if cfg.Workload == nil {
		return nil, fmt.Errorf("driver: no workload")
	}
	res, err := job.RunCtx(ctx, job.Config{
		Mode:         cfg.Mode,
		Backend:      cfg.Backend,
		Workload:     cfg.Workload,
		NTasks:       cfg.NTasks,
		Ranks:        1,
		Cluster:      cfg.Cluster,
		Mem:          cfg.Mem,
		FS:           cfg.FS,
		RunMPITest:   cfg.RunMPITest,
		Coverage:     cfg.Coverage,
		ASLR:         cfg.ASLR,
		WarmFS:       cfg.WarmFS,
		SharedFS:     cfg.SharedFS,
		NoFastPath:   cfg.NoFastPath,
		RelocWorkers: cfg.RelocWorkers,
		Events:       cfg.Events,
		Seed:         cfg.Seed,
	})
	if err != nil {
		return nil, err
	}
	r := res.Ranks[0]
	return &Metrics{
		Mode:            cfg.Mode,
		StartupSec:      r.StartupSec,
		ImportSec:       r.ImportSec,
		VisitSec:        r.VisitSec,
		MPISec:          res.MPISec,
		Startup:         r.Startup,
		Import:          r.Import,
		Visit:           r.Visit,
		Loader:          r.Loader,
		VM:              r.VM,
		FS:              r.FS,
		ModulesImported: r.ModulesImported,
		FuncsVisited:    r.FuncsVisited,
		Kernel:          res.Kernel,
	}, nil
}
