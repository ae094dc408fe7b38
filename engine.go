package pynamic

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"

	"repro/internal/api"
	"repro/internal/castore"
	"repro/internal/cluster"
	"repro/internal/driver"
	"repro/internal/experiments"
	"repro/internal/job"
	"repro/internal/pygen"
	"repro/internal/runner"
	"repro/internal/toolsim"
)

// Engine is the long-lived entry point of the v1 API: one Engine
// amortizes setup across many runs. It owns a content-hash-keyed
// workload cache (repeated runs over the same Config skip
// regeneration), an optional streaming event sink, and default
// policies (seed, memory backend, cluster shape) applied to requests
// that leave those fields zero. An Engine is safe for concurrent use;
// cmd/pynamic-serve drives one shared Engine from concurrent HTTP
// requests.
//
// Every method takes a context.Context and honors cancellation down
// through the job engine's rank workers and the experiment runner's
// cell pool; a canceled call returns an error wrapping ErrCanceled.
// All failures are *Error values carrying Op and Stage.
type Engine struct {
	seed       uint64
	backend    MemBackend
	backendSet bool
	clust      ClusterConfig
	cacheSize  int
	cacheDir   string
	events     func(Event)
	phaseObs   func(phase string, simSec float64)
	cache      *workloadCache
	store      castore.Store
	reg        *runner.Registry
	stats      *engineStats
}

// Option configures an Engine at construction.
type Option func(*Engine) error

// WithSeed sets the engine's default seed policy: any RunConfig,
// JobConfig or generator Config submitted with Seed == 0 receives this
// seed instead. The zero default keeps the per-call seeds untouched.
func WithSeed(seed uint64) Option {
	return func(e *Engine) error {
		e.seed = seed
		return nil
	}
}

// WithBackend sets the engine's default memory backend, substituted
// into runs that leave Backend at its zero value (Analytic). Configure
// it on engines dedicated to line-accurate studies.
func WithBackend(b MemBackend) Option {
	return func(e *Engine) error {
		if b != Analytic && b != Detailed {
			return badConfig(fmt.Sprintf("unknown memory backend %d", b))
		}
		e.backend = b
		e.backendSet = true
		return nil
	}
}

// WithCluster sets the engine's default cluster shape, substituted
// into runs that leave Cluster zero (which would otherwise default to
// the paper's Zeus cluster).
func WithCluster(c ClusterConfig) Option {
	return func(e *Engine) error {
		if err := c.Validate(); err != nil {
			return badConfig(err.Error())
		}
		e.clust = c
		return nil
	}
}

// WithWorkloadCacheSize bounds the workload cache to n generated
// workloads (LRU-evicted). n == 0 disables caching; n < 0 is an
// error. The default is 8.
func WithWorkloadCacheSize(n int) Option {
	return func(e *Engine) error {
		if n < 0 {
			return badConfig(fmt.Sprintf("workload cache size %d < 0", n))
		}
		e.cacheSize = n
		return nil
	}
}

// WithCacheDir attaches a persistent content-addressed store rooted at
// dir (created if needed), shared across engines, processes, and
// restarts: generated workload manifests and completed spec results
// are written through to it and read back by content hash, so a fresh
// process pointed at a warmed directory answers an already-computed
// spec without re-simulating. The directory may safely be shared with
// runner disk caches (NewDiskResultCache) — all tiers live under one
// store with distinct schema labels. See README.md, "Persistent
// cache".
func WithCacheDir(dir string) Option {
	return func(e *Engine) error {
		if dir == "" {
			return badConfig("empty cache dir")
		}
		e.cacheDir = dir
		return nil
	}
}

// WithEvents registers a streaming event sink. Events are delivered
// sequentially (never concurrently) per operation, in an order that is
// deterministic for a given configuration regardless of worker counts:
// serial sections emit live, and events produced inside a parallel
// section are delivered at that section's barrier in canonical order.
// See DESIGN.md, "Event-ordering determinism". The sink must not
// block: it runs on the simulation's path.
func WithEvents(fn func(Event)) Option {
	return func(e *Engine) error {
		e.events = fn
		return nil
	}
}

// WithPhaseObserver registers a per-phase latency hook: after every
// completed run or job, fn is called once per phase ("startup",
// "import", "visit", "mpi") with that operation's simulated seconds
// for the phase. This is the engine half of the serving layer's
// histogram observability — EngineStats.PhaseSimSec already sums the
// same numbers, but only an observer sees the per-operation values a
// distribution needs. fn is called outside the engine's stats lock and
// may be invoked concurrently from concurrent operations, so it must
// be safe for concurrent use and must not block.
func WithPhaseObserver(fn func(phase string, simSec float64)) Option {
	return func(e *Engine) error {
		e.phaseObs = fn
		return nil
	}
}

// New constructs an Engine. Option validation failures return an error
// wrapping ErrBadConfig.
func New(opts ...Option) (*Engine, error) {
	e := &Engine{cacheSize: 8, reg: experiments.RunnerRegistry(), stats: newEngineStats()}
	for _, opt := range opts {
		if err := opt(e); err != nil {
			return nil, wrapErr("New", "config", err)
		}
	}
	e.stats.observer = e.phaseObs
	e.cache = newWorkloadCache(e.cacheSize)
	if e.cacheDir != "" {
		st, err := castore.Open(e.cacheDir, castore.Options{Compress: true})
		if err != nil {
			return nil, wrapErr("New", "config", err)
		}
		e.store = st
	}
	return e, nil
}

// emitter returns the per-operation event sink: it stamps Op and a
// 0-based Seq onto every event and serializes delivery. A nil sink is
// returned when the engine has no event callback, which internal
// layers treat as "emission disabled".
func (e *Engine) emitter(op string) api.Sink {
	if e.events == nil {
		return nil
	}
	var mu sync.Mutex
	seq := 0
	return func(ev api.Event) {
		mu.Lock()
		defer mu.Unlock()
		ev.Op = op
		ev.Seq = seq
		seq++
		e.events(ev)
	}
}

// WorkloadCacheStats reports the engine's workload-cache counters.
func (e *Engine) WorkloadCacheStats() WorkloadCacheStats { return e.cache.stats() }

// GenerateCtx builds (or retrieves from the workload cache) the
// workload for cfg. Identical configurations — compared by content
// hash, not by caller identity — share one immutable *Workload, so a
// repeated-config run sequence pays for generation once. Treat the
// result as read-only.
func (e *Engine) GenerateCtx(ctx context.Context, cfg Config) (*Workload, error) {
	const op = "Generate"
	if cfg.Seed == 0 && e.seed != 0 {
		cfg.Seed = e.seed
	}
	if cfg.MaxCallDepth == 0 {
		cfg.MaxCallDepth = 10
	}
	if err := cfg.Validate(); err != nil {
		return nil, wrapErr(op, "config", badConfig(err.Error()))
	}
	if err := api.Checkpoint(ctx); err != nil {
		return nil, wrapErr(op, "generate", err)
	}
	emit := e.emitter("generate")
	emit.Emit(api.Event{Kind: api.PhaseStart, Phase: "generate"})
	key := workloadKey(cfg)
	w, hit, err := e.cache.getOrGenerate(ctx, key, func() (*Workload, error) {
		return e.generateWorkload(ctx, key, cfg)
	})
	if err != nil {
		return nil, wrapErr(op, "generate", err)
	}
	emit.Emit(api.Event{Kind: api.PhaseDone, Phase: "generate", CacheHit: hit})
	e.stats.countGenerate()
	return w, nil
}

// generateWorkload is the in-memory workload cache's fill function:
// with a persistent store attached, a miss first consults the stored
// canonical manifest for key. LoadManifest regenerates from the
// manifest's own Config and verifies the result against its recorded
// sizes, so what the store tier buys is cross-process *identity* — a
// sibling or restarted engine provably rebuilds the same workload, and
// model drift or a corrupt entry is detected (and healed by
// regeneration) instead of silently served. The compute win of the
// store lives in the result tiers (spec results, runner cell metrics),
// which skip simulation entirely.
func (e *Engine) generateWorkload(ctx context.Context, key string, cfg Config) (*Workload, error) {
	if e.store == nil {
		return pygen.GenerateCtx(ctx, cfg)
	}
	if data, ok := e.store.Get(workloadSchema, key); ok {
		w, err := pygen.LoadManifest(ctx, bytes.NewReader(data))
		if err == nil {
			e.stats.countStoreWorkloadHit()
			return w, nil
		}
		if errors.Is(err, api.ErrCanceled) {
			return nil, err
		}
		// Undecodable or drifted manifest: fall through, regenerate,
		// and overwrite the stale entry.
	}
	w, err := pygen.GenerateCtx(ctx, cfg)
	if err != nil {
		return nil, err
	}
	if data, merr := json.Marshal(w.Manifest()); merr == nil {
		// Best effort: a full store or unwritable directory must not
		// fail a generation that already succeeded.
		_ = e.store.Put(workloadSchema, key, data)
	}
	return w, nil
}

// runDefaults applies the engine's default policies to a driver run.
func (e *Engine) runDefaults(cfg RunConfig) RunConfig {
	if cfg.Seed == 0 && e.seed != 0 {
		cfg.Seed = e.seed
	}
	if e.backendSet && cfg.Backend == Analytic {
		cfg.Backend = e.backend
	}
	if cfg.Cluster.Nodes == 0 && e.clust.Nodes != 0 {
		cfg.Cluster = e.clust
	}
	return cfg
}

// jobDefaults applies the engine's default policies to a job run.
func (e *Engine) jobDefaults(cfg JobConfig) JobConfig {
	if cfg.Seed == 0 && e.seed != 0 {
		cfg.Seed = e.seed
	}
	if e.backendSet && cfg.Backend == Analytic {
		cfg.Backend = e.backend
	}
	if cfg.Cluster.Nodes == 0 && e.clust.Nodes != 0 {
		cfg.Cluster = e.clust
	}
	return cfg
}

// RunCtx executes the Pynamic driver (the legacy single-rank
// extrapolation) over a workload. Cancellation reaches the rank
// pipeline's import and visit loops, so a canceled run aborts within a
// few modules' simulated work.
func (e *Engine) RunCtx(ctx context.Context, cfg RunConfig) (*Metrics, error) {
	const op = "Run"
	if cfg.Workload == nil {
		return nil, wrapErr(op, "config", badConfig("no workload"))
	}
	cfg = e.runDefaults(cfg)
	emit := e.emitter("run")
	if cfg.Events == nil {
		cfg.Events = emit
	}
	emit.Emit(api.Event{Kind: api.PhaseStart, Phase: "job"})
	m, err := driver.RunCtx(ctx, cfg)
	if err != nil {
		return nil, wrapErr(op, "run", err)
	}
	emit.Emit(api.Event{Kind: api.PhaseDone, Phase: "job", Sec: m.TotalSec()})
	e.stats.countRun(m)
	return m, nil
}

// RunJobCtx executes the per-rank job engine over a workload. With an
// event sink configured, the stream carries one RankDone per simulated
// rank plus the job phase times, in an order independent of
// JobConfig.Workers.
func (e *Engine) RunJobCtx(ctx context.Context, cfg JobConfig) (*JobResult, error) {
	const op = "RunJob"
	if cfg.Workload == nil {
		return nil, wrapErr(op, "config", badConfig("no workload"))
	}
	cfg = e.jobDefaults(cfg)
	emit := e.emitter("run-job")
	if cfg.Events == nil {
		cfg.Events = emit
	}
	emit.Emit(api.Event{Kind: api.PhaseStart, Phase: "job"})
	res, err := job.RunCtx(ctx, cfg)
	if err != nil {
		return nil, wrapErr(op, "run", err)
	}
	emit.Emit(api.Event{Kind: api.PhaseDone, Phase: "job", Sec: res.TotalSec()})
	e.stats.countJob(res)
	return res, nil
}

// ToolAttachCtx simulates one debugger startup (Table IV). Run it
// twice against the same ToolStartupConfig.FS for the cold/warm pair.
func (e *Engine) ToolAttachCtx(ctx context.Context, cfg ToolStartupConfig) (ToolStartupPhases, error) {
	const op = "ToolAttach"
	if cfg.Cluster.Nodes == 0 && e.clust.Nodes != 0 {
		cfg.Cluster = e.clust
	}
	emit := e.emitter("tool-attach")
	emit.Emit(api.Event{Kind: api.PhaseStart, Phase: "attach"})
	ph, err := toolsim.AttachCtx(ctx, cfg)
	if err != nil {
		return ph, wrapErr(op, "attach", err)
	}
	emit.Emit(api.Event{Kind: api.PhaseDone, Phase: "attach", Sec: ph.Total()})
	e.stats.countToolAttach()
	return ph, nil
}

// ExperimentInfo describes one registered experiment (paper sweeps,
// ablations, and the scenario catalog).
type ExperimentInfo struct {
	Name        string `json:"name"`
	Description string `json:"description"`
	// GridPoints is the size of the experiment's default grid.
	GridPoints int `json:"grid_points"`
}

// Experiments lists every registered experiment in registration order.
func (e *Engine) Experiments() []ExperimentInfo {
	var out []ExperimentInfo
	for _, name := range e.reg.Names() {
		exp := e.reg.Get(name)
		info := ExperimentInfo{Name: exp.Name, Description: exp.Description}
		if exp.Grid != nil {
			info.GridPoints = len(exp.Grid())
		}
		out = append(out, info)
	}
	return out
}

// ExperimentSpec configures one RunExperimentCtx call.
type ExperimentSpec struct {
	// Grid overrides the experiment's default parameter grid.
	Grid []Params
	// Repeats per grid point (min 1).
	Repeats int
	// Seed is the base seed for per-cell seed derivation (0 =
	// paper-default workload seeds).
	Seed uint64
	// Workers bounds cell-pool concurrency (≤0 = GOMAXPROCS).
	Workers int
	// Cache, when non-nil, serves repeated cells from content-keyed
	// results.
	Cache ResultCache
}

// RunExperimentCtx runs one registered experiment through the cell
// pool. An unrecognized name returns ErrUnknownExperiment; a canceled
// context returns the partial result alongside ErrCanceled.
func (e *Engine) RunExperimentCtx(ctx context.Context, name string, spec ExperimentSpec) (*ExperimentResult, error) {
	ms := MatrixSpec{
		Experiments: []string{name},
		Repeats:     spec.Repeats,
		Seed:        spec.Seed,
		Workers:     spec.Workers,
		Cache:       spec.Cache,
	}
	if spec.Grid != nil {
		ms.Grids = map[string][]Params{name: spec.Grid}
	}
	res, err := e.RunMatrixCtx(ctx, ms)
	if res == nil || len(res.Experiments) != 1 {
		return nil, err
	}
	return &res.Experiments[0], err
}

// RunMatrixCtx executes an experiment matrix (experiments × grids ×
// repeats) through the runner's worker pool. Results are byte-identical
// for any Workers value. On cancellation the partial MatrixResult
// (completed cells, Canceled set) is returned together with an error
// wrapping ErrCanceled.
func (e *Engine) RunMatrixCtx(ctx context.Context, spec MatrixSpec) (*MatrixResult, error) {
	const op = "RunMatrix"
	for _, name := range spec.Experiments {
		if e.reg.Get(name) == nil {
			return nil, wrapErr(op, "config",
				fmt.Errorf("%q (have %v): %w", name, e.reg.Names(), ErrUnknownExperiment))
		}
	}
	emit := e.emitter("run-matrix")
	if spec.Events == nil {
		spec.Events = emit
	}
	emit.Emit(api.Event{Kind: api.PhaseStart, Phase: "matrix"})
	res, err := runner.RunMatrixCtx(ctx, e.reg, spec)
	if err != nil {
		return res, wrapErr(op, "matrix", err)
	}
	emit.Emit(api.Event{Kind: api.PhaseDone, Phase: "matrix"})
	e.stats.countMatrix()
	return res, nil
}

// TableICtx reproduces Tables I and II (three build-mode driver runs
// over one workload, served from the workload cache). The Table
// methods hand the experiments layer the engine's GenerateCtx, so
// Table runs share the workload cache.
func (e *Engine) TableICtx(ctx context.Context, opts ExperimentOptions) (*TableIResult, error) {
	r, err := experiments.RunTableICtx(ctx, opts, e.GenerateCtx)
	return r, wrapErr("TableI", "run", err)
}

// TableIIICtx reproduces Table III (full-scale section-size
// accounting).
func (e *Engine) TableIIICtx(ctx context.Context, seed uint64) (*TableIIIResult, error) {
	r, err := experiments.RunTableIIICtx(ctx, seed, e.GenerateCtx)
	return r, wrapErr("TableIII", "run", err)
}

// TableIVCtx reproduces Table IV (tool startup, cold/warm, both
// workload models).
func (e *Engine) TableIVCtx(ctx context.Context, opts ExperimentOptions) (*TableIVResult, error) {
	r, err := experiments.RunTableIVCtx(ctx, opts, e.GenerateCtx)
	return r, wrapErr("TableIV", "run", err)
}

// CostModel reproduces the §II.B.3 closed-form example (pure
// computation; no context needed).
func (e *Engine) CostModel() *CostModelResult { return experiments.RunCostModel() }

// ---------- v1 vocabulary re-exported from internal layers ----------

// Event is one streaming progress event (see WithEvents).
type Event = api.Event

// EventKind classifies an Event.
type EventKind = api.EventKind

// Event kinds.
const (
	PhaseStart = api.PhaseStart
	PhaseDone  = api.PhaseDone
	RankDone   = api.RankDone
	CellDone   = api.CellDone
)

// ClusterConfig describes a simulated cluster (node count, cores,
// link characteristics); see WithCluster and JobConfig.Cluster.
type ClusterConfig = cluster.Config

// ZeusCluster returns the paper's Zeus cluster configuration.
func ZeusCluster() ClusterConfig { return cluster.Zeus() }

// PlacementPolicy distributes a job's tasks across nodes.
type PlacementPolicy = cluster.Policy

// Placement policies.
const (
	// PlacementBlock fills a node's cores before moving on (the
	// default).
	PlacementBlock = cluster.Block
	// PlacementRoundRobin deals tasks across nodes cyclically.
	PlacementRoundRobin = cluster.RoundRobin
)

// ParsePlacement maps "block" or "round-robin" to a policy.
func ParsePlacement(s string) (PlacementPolicy, error) { return cluster.ParsePolicy(s) }

// ParseBuildMode maps a CLI-style mode key ("vanilla", "link",
// "link-bind") or Table I row label to a build mode.
func ParseBuildMode(s string) (BuildMode, error) { return experiments.ParseMode(s) }

// Params is one experiment grid point (JSON-scalar values only).
type Params = runner.Params

// CellMetrics is one experiment cell's output: named scalar
// measurements.
type CellMetrics = runner.Metrics

// CellResult is one executed (or cache-served) matrix cell.
type CellResult = runner.CellResult

// Aggregate is the repeat summary for one grid point.
type Aggregate = runner.Aggregate

// MatrixSpec describes one RunMatrixCtx invocation.
type MatrixSpec = runner.MatrixSpec

// MatrixResult is the full outcome of RunMatrixCtx.
type MatrixResult = runner.MatrixResult

// ExperimentResult groups one experiment's cells and aggregates.
type ExperimentResult = runner.ExperimentResult

// ResultCache stores experiment cell results keyed by content
// (experiment, canonical grid point, seed).
type ResultCache = runner.Cache

// NewMemResultCache returns an in-memory ResultCache.
func NewMemResultCache() ResultCache { return runner.NewMemCache() }

// NewDiskResultCache opens (creating if needed) an on-disk ResultCache
// rooted at dir.
func NewDiskResultCache(dir string) (ResultCache, error) { return runner.NewDiskCache(dir) }

// StoreStats is a snapshot of the persistent store's counters (see
// WithCacheDir and EngineStats.Store).
type StoreStats = castore.Stats

// TableIResult carries the three build-mode runs of Tables I and II.
type TableIResult = experiments.TableIResult

// TableIIIResult compares generated section sizes to the paper.
type TableIIIResult = experiments.TableIIIResult

// TableIVResult holds both tool-startup workload columns, cold and
// warm.
type TableIVResult = experiments.TableIVResult

// CostModelResult holds the §II.B.3 reproduction.
type CostModelResult = experiments.CostModelResult
