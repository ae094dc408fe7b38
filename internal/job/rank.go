package job

import (
	"context"
	"fmt"

	"repro/internal/api"
	"repro/internal/dynld"
	"repro/internal/fsim"
	"repro/internal/memsim"
	"repro/internal/papisim"
	"repro/internal/pygen"
	"repro/internal/pyvm"
	"repro/internal/simtime"
	"repro/internal/xrand"
)

// rankCtx is what the job hands each rank: identity, placement, seed,
// its filesystem view, and the job-shared read-only loader index.
type rankCtx struct {
	id      int
	node    int
	seed    uint64
	fs      *fsim.FS
	clients int
	shared  *dynld.SharedIndex
}

// Rank is one simulated MPI task: its own substrate bundle (memory
// model, clock, loader, interpreter) over the job's shared immutable
// workload. A job simulates one Rank per rank class, which stands for
// every member of the class. Ranks share no mutable state, so any
// number of them can run concurrently.
type Rank struct {
	ctx     rankCtx
	fs      *fsim.FS
	metrics RankMetrics
	// kernel holds host-side kernel efficiency counters, kept out of
	// RankMetrics because that struct is serialized into committed
	// goldens and kernel counters describe the host, not the simulation.
	kernel dynld.KernelStats
}

func newRank(ctx rankCtx) *Rank {
	return &Rank{ctx: ctx, fs: ctx.fs}
}

// phase is one stage of the pipeline: a name for error reporting, the
// work, and where its measurements land.
type phase struct {
	name     string
	work     func() error
	counters *PhaseCounters
	secs     *float64
}

// checkEvery is how many modules the import and visit loops process
// between cancellation probes: frequent enough that a canceled job
// stops within a few modules' simulated work, rare enough that the
// probe never shows up in a profile.
const checkEvery = 32

// runPipeline builds the rank's substrates and executes the phase
// pipeline (startup → import → visit), recording per-phase simulated
// seconds and PAPI-style counters into the rank's metrics. Phase time
// is I/O seconds from the rank's clock plus CPU cycles at the rank's
// effective (skewed) core frequency. Cancellation is probed at each
// phase boundary and every checkEvery modules within the import and
// visit loops.
func (rk *Rank) runPipeline(ctx context.Context, cfg Config, w *pygen.Workload) error {
	m := &rk.metrics

	// Rank skew: a seeded CPU slowdown factor in [1, 1+RankSkew),
	// modelling the clock/firmware/OS-noise spread real nodes show.
	m.Skew = 1
	if cfg.RankSkew > 0 {
		m.Skew = 1 + cfg.RankSkew*xrand.New(rk.ctx.seed^0x5ce3).Float64()
	}
	hz := cfg.Cluster.CoreHz / m.Skew

	var mem memsim.Memory
	switch cfg.Backend {
	case Detailed:
		mem = memsim.NewDetailed(cfg.Mem, xrand.New(rk.ctx.seed^0xdeadbeef))
	default:
		mem = memsim.NewAnalytic(cfg.Mem)
	}
	clock := simtime.NewClock(cfg.Cluster.CoreHz)
	ld := dynld.New(mem, rk.fs, clock, dynld.Options{
		BindNow:      cfg.Mode == LinkBind,
		ASLR:         cfg.ASLR,
		Seed:         rk.ctx.seed,
		NodeID:       rk.ctx.node,
		Clients:      rk.ctx.clients,
		NoFastPath:   cfg.NoFastPath,
		Shared:       rk.ctx.shared,
		RelocWorkers: cfg.RelocWorkers,
	})
	for _, img := range w.AllImages() {
		ld.Install(img)
	}
	ld.Install(w.Exe)
	interp := pyvm.New(mem, ld, w.Find, pyvm.Options{Coverage: cfg.Coverage})
	es, err := papisim.NewEventSet(mem,
		papisim.L1DCM, papisim.L1ICM, papisim.L2TCM, papisim.TOTINS)
	if err != nil {
		return err
	}

	modules := make([]*pyvm.Module, 0, len(w.ModuleNames()))
	pipeline := []phase{
		{
			// Startup: process launch to first driver line.
			name: "startup", counters: &m.Startup, secs: &m.StartupSec,
			work: func() error {
				if _, err := ld.StartupExecutable(w.Exe); err != nil {
					return err
				}
				if cfg.Mode != Vanilla {
					if err := ld.StartupPrelinked(w.Sonames()); err != nil {
						return err
					}
				}
				mem.Instructions(20e6) // interpreter boot: site init, codecs, etc.
				return nil
			},
		},
		{
			// Import: import every generated module.
			name: "import", counters: &m.Import, secs: &m.ImportSec,
			work: func() error {
				for i, name := range w.ModuleNames() {
					if i%checkEvery == 0 {
						if err := api.Checkpoint(ctx); err != nil {
							return err
						}
					}
					mod, err := interp.Import(name)
					if err != nil {
						return err
					}
					modules = append(modules, mod)
				}
				return nil
			},
		},
		{
			// Visit: run every module's entry function.
			name: "visit", counters: &m.Visit, secs: &m.VisitSec,
			work: func() error {
				for i, mod := range modules {
					if i%checkEvery == 0 {
						if err := api.Checkpoint(ctx); err != nil {
							return err
						}
					}
					if err := interp.VisitEntry(mod); err != nil {
						return err
					}
				}
				return nil
			},
		},
	}
	for _, ph := range pipeline {
		if err := api.Checkpoint(ctx); err != nil {
			return fmt.Errorf("%s phase: %w", ph.name, err)
		}
		mark := clock.Mark()
		cycles := mem.Cycles()
		if err := es.Start(); err != nil {
			return err
		}
		if err := ph.work(); err != nil {
			return fmt.Errorf("%s phase: %w", ph.name, err)
		}
		vals, err := es.Stop()
		if err != nil {
			return err
		}
		*ph.counters = toPhase(vals)
		*ph.secs = clock.Since(mark) + float64(mem.Cycles()-cycles)/hz
	}

	m.Loader = ld.Stats()
	rk.kernel = ld.Kernel()
	m.VM = interp.Stats()
	m.FS = rk.fs.Stats()
	m.ModulesImported = len(modules)
	m.FuncsVisited = interp.Stats().Calls
	return nil
}
