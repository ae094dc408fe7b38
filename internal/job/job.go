// Package job is the per-rank job engine: it runs the Pynamic driver's
// phase pipeline (startup → import → visit → MPI test) for N simulated
// MPI ranks instead of extrapolating from rank 0.
//
// Each Rank carries its own substrate bundle — memory model, simulated
// clock, dynamic linker wired to the rank's *real* node from the
// cluster placement, interpreter — over shared immutable state: the
// workload images, the dynld first-definer index (built once per job,
// shared read-only), and a forked view of the job filesystem. Because
// ranks share nothing mutable, they execute goroutine-parallel and the
// results are byte-identical regardless of worker count or GOMAXPROCS;
// per-rank randomness (detailed-model placement, ASLR, skew) derives
// from deterministic per-rank seeds.
//
// Rank classes: the paper's import storm is N tasks repeating the same
// loader and interpreter work, and the engine does not repeat it on the
// host. Before the pipeline it groups the ranks into classes of ranks
// that read exactly the same inputs — the same initial node buffer
// cache (contents and recency order) and node I/O scale, and the seed
// whenever ASLR, the detailed memory backend or rank skew reads it —
// and simulates one representative per class, the lowest rank. Every
// member reports its representative's metrics under its own rank, node,
// seed and straggler flag, and the barrier absorbs the representative's
// filesystem fork once per member, relabelled onto the member's node.
// A homogeneous N-rank job thus costs one rank, and its result is
// byte-identical to simulating every rank in full (Config.NoFastPath).
//
// The engine reports per-rank metric distributions (min/mean/max/p99)
// and job phase times gated by the slowest rank, matching MPI barrier
// semantics. Heterogeneity knobs make the ranks differ: RankSkew gives
// each rank a seeded CPU slowdown, StragglerFrac degrades the I/O of a
// seeded subset of nodes, and WarmNodeFrac starts a seeded subset of
// nodes with warm buffer caches.
//
// Cache semantics within one job: ranks storm concurrently, so a rank
// never benefits from a co-located rank's reads during the same run
// (each rank's filesystem fork starts from the job's initial state).
// Cache reuse across *jobs* works as before — forks are absorbed back
// into the job filesystem at the end, so a second run over the same
// SharedFS sees warm caches.
//
// driver.RunCtx runs a 1-rank job and reports it in the driver's
// Metrics shape.
package job

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"

	"repro/internal/api"
	"repro/internal/cluster"
	"repro/internal/dynld"
	"repro/internal/fsim"
	"repro/internal/memsim"
	"repro/internal/mpisim"
	"repro/internal/pygen"
	"repro/internal/pympi"
	"repro/internal/xrand"
)

// Mode selects the paper's build/run configuration. internal/driver
// aliases its BuildMode to this type.
type Mode int

// Build modes, in Table I row order.
const (
	Vanilla Mode = iota
	Link
	LinkBind
)

// String returns the Table I row label.
func (m Mode) String() string {
	switch m {
	case Vanilla:
		return "Vanilla"
	case Link:
		return "Link"
	case LinkBind:
		return "Link+Bind"
	}
	return "invalid"
}

// Backend selects the memory-model fidelity.
type Backend int

// Memory backends.
const (
	// Analytic is the fast model; required for paper-scale workloads.
	Analytic Backend = iota
	// Detailed is the line-accurate model; use at reduced scale.
	Detailed
)

// Config configures a job run.
type Config struct {
	Mode     Mode
	Backend  Backend
	Workload *pygen.Workload

	// NTasks is the MPI job size; it drives filesystem contention (all
	// tasks start and load concurrently) and the MPI test world size.
	NTasks int
	// Ranks is how many of the job's tasks to actually simulate
	// (ranks 0..Ranks-1 of the placement). 0 means all NTasks; 1 is
	// the legacy driver's rank-0 extrapolation.
	Ranks int
	// Placement distributes tasks across nodes (block or round-robin).
	Placement cluster.Policy

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
	// NoFastPath selects the reference path: no loader symbol-lookup
	// fast path, no shared first-definer index, and no rank classes —
	// every rank is simulated in full. Simulated results are unchanged;
	// equivalence tests, benchmark baselines and result checks run it.
	NoFastPath bool

	// RankSkew is the maximum fractional CPU slowdown per rank: rank r
	// runs at CoreHz / (1 + RankSkew·u_r) with u_r seeded uniform in
	// [0, 1). 0 means homogeneous ranks.
	RankSkew float64
	// StragglerFrac selects that fraction of the job's nodes (seeded,
	// at least one when > 0) as I/O-degraded stragglers.
	StragglerFrac float64
	// StragglerIOScale is the I/O time multiplier on straggler nodes
	// (default 4).
	StragglerIOScale float64
	// WarmNodeFrac starts that fraction of the job's nodes (seeded, at
	// least one when > 0) with the workload already in their buffer
	// caches — the mixed cold/warm state of a partially recycled
	// allocation.
	WarmNodeFrac float64

	// Workers bounds goroutine parallelism across the simulated ranks
	// — one representative per rank class (≤0 = GOMAXPROCS; never more
	// than there are representatives). It never affects results, only
	// host wall time.
	Workers int
	// RelocWorkers bounds goroutine parallelism *within* a rank's
	// relocation batches (see dynld.Options.RelocWorkers; ≤1 =
	// serial). Like Workers it is an execution knob: results are
	// byte-identical at any value, so it is not part of a run's
	// spec identity.
	RelocWorkers int

	// Events, when non-nil, receives streaming progress events:
	// RankDone per rank (delivered at the pipeline barrier, in rank
	// order), PhaseDone per pipeline phase with the job phase time, and
	// PhaseStart/PhaseDone around the MPI test. Delivery order is
	// deterministic for a given Config regardless of Workers.
	Events api.Sink `json:"-"`

	Seed uint64
}

// withDefaults fills unset fields with the paper's environment.
func (c Config) withDefaults() Config {
	if c.NTasks == 0 {
		c.NTasks = 1
	}
	if c.Ranks == 0 {
		c.Ranks = c.NTasks
	}
	if c.Cluster.Nodes == 0 {
		c.Cluster = cluster.Zeus()
	}
	if c.Mem.LineSize == 0 {
		c.Mem = memsim.ZeusConfig()
	}
	if c.FS.NFSConcurrency == 0 {
		c.FS = fsim.Defaults()
	}
	if c.StragglerIOScale == 0 {
		c.StragglerIOScale = 4
	}
	return c
}

// rankSeed derives rank r's seed from the job seed. Rank 0 keeps the
// job seed itself, so a 1-rank job is bit-identical to the legacy
// single-rank driver at the same seed.
func rankSeed(base uint64, r int) uint64 {
	if r == 0 {
		return base
	}
	x := base ^ (uint64(r) * 0x9e3779b97f4a7c15)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// pickNodes deterministically selects round(frac·nodes) node IDs (at
// least one when frac > 0), in ascending order.
func pickNodes(seed uint64, nodes int, frac float64, salt uint64) []int {
	if frac <= 0 || nodes <= 0 {
		return nil
	}
	n := int(frac*float64(nodes) + 0.5)
	if n < 1 {
		n = 1
	}
	if n > nodes {
		n = nodes
	}
	perm := xrand.New(seed ^ salt).Perm(nodes)
	picked := append([]int(nil), perm[:n]...)
	sort.Ints(picked)
	return picked
}

// rankClasses groups the simulated ranks into classes of ranks that
// read exactly the same inputs, and returns each rank's representative:
// the lowest rank of its class. A rank reads its node's initial
// buffer-cache state and I/O scale (compared state for state by
// fsim.SameNodeState, not by a hash), and its seed when ASLR, the
// detailed memory backend or rank skew draws from it. No two ranks
// share a seed, so any of those three makes every rank its own class,
// and so does NoFastPath: the reference path simulates every rank in
// full.
func rankClasses(cfg Config, place *cluster.Placement, fs *fsim.FS) []int {
	rep := make([]int, cfg.Ranks)
	perRank := cfg.NoFastPath || cfg.ASLR || cfg.Backend == Detailed || cfg.RankSkew > 0
	var reps []int
	for r := range rep {
		rep[r] = r
		if perRank {
			continue
		}
		for _, q := range reps {
			if fs.SameNodeState(place.NodeOf(q), place.NodeOf(r)) {
				rep[r] = q
				break
			}
		}
		if rep[r] == r {
			reps = append(reps, r)
		}
	}
	return rep
}

// RunCtx executes the job and returns its result. Rank workers probe
// ctx between ranks, between pipeline phases, and inside the
// per-module import and visit loops, so canceling mid-job abandons the
// simulation promptly and returns an error wrapping api.ErrCanceled.
func RunCtx(ctx context.Context, cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	if cfg.Workload == nil {
		return nil, fmt.Errorf("job: no workload")
	}
	if err := cfg.Cluster.Validate(); err != nil {
		return nil, err
	}
	place, err := cluster.PlaceWith(cfg.Cluster, cfg.NTasks, cfg.Placement)
	if err != nil {
		return nil, err
	}
	if cfg.Ranks < 0 || cfg.Ranks > cfg.NTasks {
		return nil, fmt.Errorf("job: %d simulated ranks outside [1, %d tasks]",
			cfg.Ranks, cfg.NTasks)
	}

	// Job-shared immutable state: the filesystem's initial snapshot and
	// the loader's first-definer index.
	base := cfg.SharedFS
	if base == nil {
		base, err = fsim.New(cfg.FS, place.NodesUsed())
		if err != nil {
			return nil, err
		}
	}
	w := cfg.Workload
	for _, img := range w.AllImages() {
		base.Create(img.Path, img.FileSize())
	}
	base.Create(w.Exe.Path, w.Exe.FileSize())
	if !cfg.WarmFS {
		base.DropCaches()
	}
	res := &Result{
		Mode:      cfg.Mode,
		NTasks:    cfg.NTasks,
		NodesUsed: place.NodesUsed(),
	}
	res.WarmNodes = pickNodes(cfg.Seed, place.NodesUsed(), cfg.WarmNodeFrac, 0x77a7)
	if err := base.WarmNodes(res.WarmNodes...); err != nil {
		return nil, err
	}
	res.StragglerNodes = pickNodes(cfg.Seed, place.NodesUsed(), cfg.StragglerFrac, 0x57a6)
	for _, n := range res.StragglerNodes {
		if err := base.SetNodeIOScale(n, cfg.StragglerIOScale); err != nil {
			return nil, err
		}
	}

	var shared *dynld.SharedIndex
	if !cfg.NoFastPath {
		shared, err = buildSharedIndex(cfg, w)
		if err != nil {
			return nil, err
		}
	}

	// Build the rank set: one representative per rank class (see
	// rankClasses), every other rank a member of its representative's
	// class. A 1-rank job runs directly against the job filesystem —
	// the legacy driver's semantics, which cold/warm SharedFS sequences
	// rely on; multi-rank jobs fork per representative and absorb the
	// forks back below.
	repOf := rankClasses(cfg, place, base)
	rankOf := make([]*Rank, len(repOf)) // each rank's representative
	var reps []*Rank
	for r, q := range repOf {
		if q != r {
			rankOf[r] = rankOf[q]
			continue
		}
		rfs := base
		if cfg.Ranks > 1 {
			rfs = base.Fork()
		}
		rankOf[r] = newRank(rankCtx{
			id:      r,
			node:    place.NodeOf(r),
			seed:    rankSeed(cfg.Seed, r),
			fs:      rfs,
			clients: place.NodesUsed(),
			shared:  shared,
		})
		reps = append(reps, rankOf[r])
	}

	// Phase pipeline, representatives goroutine-parallel. Ranks share
	// nothing mutable, so scheduling cannot change any result.
	workers := cfg.Workers
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(reps) {
		workers = len(reps)
	}
	errs := make([]error, len(reps))
	idx := make(chan int)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				if err := api.Checkpoint(ctx); err != nil {
					errs[i] = err
					continue
				}
				errs[i] = reps[i].runPipeline(ctx, cfg, w)
			}
		}()
	}
	for i := range reps {
		idx <- i
	}
	close(idx)
	wg.Wait()
	// Report cancellation over individual rank failures — when ctx is
	// canceled every unstarted rank holds ErrCanceled, and the caller
	// should see the cancellation, not an arbitrary rank index.
	for i, err := range errs {
		if err != nil && errors.Is(err, api.ErrCanceled) {
			return nil, fmt.Errorf("job: rank %d: %w", reps[i].ctx.id, err)
		}
	}
	for i, err := range errs { // first failure in rank order
		if err != nil {
			return nil, fmt.Errorf("job: rank %d: %w", reps[i].ctx.id, err)
		}
	}

	// Barrier: fold every rank's fork — its representative's, relabelled
	// onto the rank's node — back into the job filesystem, in rank order
	// for determinism. This replays the absorb sequence of simulating
	// every rank in full: a member's fork would differ from its
	// representative's only in which of their two equal nodes it changed.
	if cfg.Ranks > 1 {
		for r, rk := range rankOf {
			if err := base.AbsorbAs(rk.fs, rk.ctx.node, place.NodeOf(r)); err != nil {
				return nil, err
			}
		}
	}

	// Every rank reports its representative's metrics under its own
	// identity; the host-side kernel counters count work done, so only
	// the representatives add to them.
	isStraggler := make(map[int]bool, len(res.StragglerNodes))
	for _, n := range res.StragglerNodes {
		isStraggler[n] = true
	}
	res.Ranks = make([]RankMetrics, len(rankOf))
	for r, rk := range rankOf {
		m := rk.metrics
		m.Rank = r
		m.Node = place.NodeOf(r)
		m.Seed = rankSeed(cfg.Seed, r)
		m.StragglerNode = isStraggler[m.Node]
		res.Ranks[r] = m
	}
	for _, rk := range reps {
		res.Kernel = res.Kernel.Add(rk.kernel)
	}
	res.aggregate()

	// Rank events were produced inside the parallel section, so they
	// are delivered here, at the barrier, in canonical rank order —
	// followed by the job phase times in pipeline order. This keeps the
	// event stream byte-identical for any Workers value.
	for r := range res.Ranks {
		cfg.Events.Emit(api.Event{Kind: api.RankDone, Rank: res.Ranks[r].Rank,
			Node: res.Ranks[r].Node, Sec: res.Ranks[r].TotalSec()})
	}
	cfg.Events.Emit(api.Event{Kind: api.PhaseDone, Phase: "startup", Sec: res.StartupSec})
	cfg.Events.Emit(api.Event{Kind: api.PhaseDone, Phase: "import", Sec: res.ImportSec})
	cfg.Events.Emit(api.Event{Kind: api.PhaseDone, Phase: "visit", Sec: res.VisitSec})

	// --- MPI test phase (pyMPI builds only): job-level, all NTasks. ---
	if cfg.RunMPITest {
		if err := api.Checkpoint(ctx); err != nil {
			return nil, fmt.Errorf("job: MPI test: %w", err)
		}
		cfg.Events.Emit(api.Event{Kind: api.PhaseStart, Phase: "mpi"})
		world, err := mpisim.NewWorld(cfg.NTasks, mpisim.Config{
			Latency:   cfg.Cluster.LinkLatency,
			Bandwidth: cfg.Cluster.LinkBandwidth,
			ChanDepth: 64,
		})
		if err != nil {
			return nil, err
		}
		if err := world.Run(func(c *mpisim.Comm) error {
			_, err := pympi.MPITest(c)
			return err
		}); err != nil {
			return nil, fmt.Errorf("job: MPI test: %w", err)
		}
		res.MPISec = world.MaxSeconds()
		cfg.Events.Emit(api.Event{Kind: api.PhaseDone, Phase: "mpi", Sec: res.MPISec})
	}
	return res, nil
}

// buildSharedIndex replays the phase pipeline's canonical load order —
// executable, then (Link builds) the prelinked link line, then every
// module import — once, for all ranks to share.
func buildSharedIndex(cfg Config, w *pygen.Workload) (*dynld.SharedIndex, error) {
	b := dynld.NewIndexBuilder(append(w.AllImages(), w.Exe)...)
	if err := b.Load(w.Exe.Name); err != nil {
		return nil, err
	}
	if cfg.Mode != Vanilla {
		if err := b.Load(w.Sonames()...); err != nil {
			return nil, err
		}
	}
	for _, name := range w.ModuleNames() {
		soname, ok := w.Find(name)
		if !ok {
			return nil, fmt.Errorf("job: no extension DSO for module %s", name)
		}
		if err := b.Load(soname); err != nil {
			return nil, err
		}
	}
	return b.Index(), nil
}
