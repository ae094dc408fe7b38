// Package runner is the parallel experiment-runner subsystem: it
// executes an experiment matrix (named experiment × parameter grid ×
// N repeats) concurrently across a goroutine worker pool, derives a
// deterministic seed per cell (so the same base seed produces
// byte-identical aggregated results regardless of worker count or
// scheduling), consults a content-keyed result cache, and aggregates
// repeats into mean/std/min/max statistics.
//
// The experiments layer registers each paper study (S1/S2/S3 sweeps,
// A1/A2/A3 ablations) as an Experiment; cmd/pynamic-runner and
// cmd/pynamic-sweep route everything through RunMatrixCtx (via the
// Engine).
package runner

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/api"
)

// Params is one grid point: flag-like experiment parameters. Values
// must be JSON-scalar (string, bool, int, or float64) so the point has
// a stable canonical encoding.
type Params map[string]any

// Int reads an integer parameter, accepting int or float64 storage.
func (p Params) Int(key string) int {
	switch v := p[key].(type) {
	case int:
		return v
	case float64:
		return int(v)
	}
	return 0
}

// Float reads a float parameter, accepting int or float64 storage.
func (p Params) Float(key string) float64 {
	switch v := p[key].(type) {
	case float64:
		return v
	case int:
		return float64(v)
	}
	return 0
}

// Str reads a string parameter.
func (p Params) Str(key string) string {
	s, _ := p[key].(string)
	return s
}

// LookupInt is Int with presence reporting: ok is false when the key is
// absent, not numeric, or (for float64 storage, which JSON round-trips
// produce) not integral. Cell functions use it for parameters where a
// malformed grid point is a bug, not a default to paper over.
func (p Params) LookupInt(key string) (int, bool) {
	switch v := p[key].(type) {
	case int:
		return v, true
	case float64:
		if i := int(v); float64(i) == v {
			return i, true
		}
	}
	return 0, false
}

// LookupFloat is Float with presence reporting.
func (p Params) LookupFloat(key string) (float64, bool) {
	switch v := p[key].(type) {
	case float64:
		return v, true
	case int:
		return float64(v), true
	}
	return 0, false
}

// LookupStr is Str with presence reporting.
func (p Params) LookupStr(key string) (string, bool) {
	s, ok := p[key].(string)
	return s, ok
}

// RequireInt is LookupInt for parameters whose absence is a bug in the
// grid, not a default to paper over. The error names the experiment
// AND the cell's canonical grid point, so a grid-key typo is localized
// to the exact cell that carries it.
func (p Params) RequireInt(experiment, key string) (int, error) {
	v, ok := p.LookupInt(key)
	if !ok {
		return 0, p.missing(experiment, key, "integer")
	}
	return v, nil
}

// RequireFloat is LookupFloat with the RequireInt error contract.
func (p Params) RequireFloat(experiment, key string) (float64, error) {
	v, ok := p.LookupFloat(key)
	if !ok {
		return 0, p.missing(experiment, key, "numeric")
	}
	return v, nil
}

// RequireStr is LookupStr with the RequireInt error contract.
func (p Params) RequireStr(experiment, key string) (string, error) {
	s, ok := p.LookupStr(key)
	if !ok {
		return "", p.missing(experiment, key, "string")
	}
	return s, nil
}

func (p Params) missing(experiment, key, kind string) error {
	return fmt.Errorf("experiment %q cell %s: missing or non-%s parameter %q",
		experiment, p.Canonical(), kind, key)
}

// Canonical returns the canonical encoding of the grid point: compact
// JSON with sorted keys. It is the config component of cache keys and
// of per-cell seed derivation.
func (p Params) Canonical() string {
	b, err := json.Marshal(p) // encoding/json sorts map keys
	if err != nil {
		panic(fmt.Sprintf("runner: params not canonicalizable: %v", err))
	}
	return string(b)
}

// Metrics is one cell's output: named scalar measurements.
type Metrics map[string]float64

// Clone returns an independent copy, so cache-served and replicated
// cells never alias a map a consumer might mutate in place.
func (m Metrics) Clone() Metrics {
	if m == nil {
		return nil
	}
	out := make(Metrics, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

// Experiment is a named, parameterized, seedable unit of work.
type Experiment struct {
	// Name identifies the experiment (CLI -experiments value, cache
	// key component, artifact folder name).
	Name string
	// Description is a one-line summary for -list output.
	Description string
	// Grid returns the default parameter grid.
	Grid func() []Params
	// Run executes one cell. seed == 0 means "use the paper-default
	// workload seed"; a nonzero seed must fully determine the result.
	// ctx is the matrix's context: a cell probes it so RunMatrixCtx
	// can abandon the cell mid-flight instead of only between cells.
	Run func(ctx context.Context, p Params, seed uint64) (Metrics, error)
}

// Registry holds experiments in registration order.
type Registry struct {
	mu    sync.RWMutex
	byKey map[string]*Experiment
	order []string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byKey: map[string]*Experiment{}}
}

// Register adds an experiment. Duplicate or empty names are an error.
func (r *Registry) Register(e *Experiment) error {
	if e == nil || e.Name == "" {
		return fmt.Errorf("runner: experiment must have a name")
	}
	if e.Run == nil {
		return fmt.Errorf("runner: experiment %q has no Run func", e.Name)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.byKey[e.Name]; dup {
		return fmt.Errorf("runner: experiment %q already registered", e.Name)
	}
	r.byKey[e.Name] = e
	r.order = append(r.order, e.Name)
	return nil
}

// MustRegister is Register that panics on error (for static tables).
func (r *Registry) MustRegister(e *Experiment) {
	if err := r.Register(e); err != nil {
		panic(err)
	}
}

// Get returns the named experiment, or nil.
func (r *Registry) Get(name string) *Experiment {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.byKey[name]
}

// Names returns all experiment names in registration order.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return append([]string(nil), r.order...)
}

// CellSeed derives the deterministic seed for one cell from the base
// seed, the experiment name, and the repeat index. The grid point is
// deliberately NOT mixed in: every point of a sweep must share one
// workload per repeat, or the swept variable would be confounded with
// workload variation (the paper's scaling studies hold the generator
// seed fixed across points). A base seed of 0 is the "paper default"
// sentinel: every cell receives seed 0 and experiments fall back to
// their model's built-in workload seed (so legacy single-shot runs
// reproduce the tables exactly). Any nonzero base yields a distinct,
// well-mixed nonzero seed per (experiment, repeat).
func CellSeed(base uint64, experiment string, repeat int) uint64 {
	if base == 0 {
		return 0
	}
	s := splitmix64(base ^ fnv64a(experiment) ^ uint64(repeat)*0x9e3779b97f4a7c15)
	if s == 0 {
		s = 0x6a09e667f3bcc909 // never collapse into the sentinel
	}
	return s
}

func fnv64a(s string) uint64 {
	h := uint64(0xcbf29ce484222325)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 0x100000001b3
	}
	return h
}

func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// MatrixSpec describes one RunMatrixCtx invocation.
type MatrixSpec struct {
	// Experiments to run, in order. Empty means every registered one.
	Experiments []string
	// Grids overrides the default grid per experiment name.
	Grids map[string][]Params
	// Repeats per grid point (min 1).
	Repeats int
	// Seed is the base seed. 0 means paper-default workload seeds:
	// all repeats of a cell then share seed 0, so each grid point is
	// executed once and its result replicated across repeats (cache
	// traffic counts executed cells only).
	Seed uint64
	// Workers bounds pool concurrency (≤0 = GOMAXPROCS).
	Workers int
	// Cache, when non-nil, is consulted before running a cell and
	// updated after.
	Cache Cache
	// Events, when non-nil, receives one CellDone event per result
	// cell, delivered at the matrix barrier in canonical cell order
	// (experiment × grid × repeat), so the event stream is
	// deterministic for any Workers value.
	Events api.Sink `json:"-"`
}

// EffectiveRepeats resolves the repeat count (min 1).
func (s MatrixSpec) EffectiveRepeats() int {
	if s.Repeats < 1 {
		return 1
	}
	return s.Repeats
}

// EffectiveWorkers resolves the pool size (≤0 means GOMAXPROCS).
func (s MatrixSpec) EffectiveWorkers() int {
	if s.Workers < 1 {
		return runtime.GOMAXPROCS(0)
	}
	return s.Workers
}

// CellResult is one executed (or cache-served) cell.
type CellResult struct {
	Experiment string  `json:"experiment"`
	Params     Params  `json:"params"`
	Repeat     int     `json:"repeat"`
	Seed       uint64  `json:"seed"`
	Metrics    Metrics `json:"metrics"`
	CacheHit   bool    `json:"-"` // run-dependent; reported via MatrixResult
}

// ExperimentResult groups one experiment's cells and aggregates.
type ExperimentResult struct {
	Name       string       `json:"name"`
	Repeats    int          `json:"repeats"`
	Seed       uint64       `json:"seed"`
	Cells      []CellResult `json:"cells"`
	Aggregates []Aggregate  `json:"aggregates"`
}

// MatrixResult is the full outcome of RunMatrixCtx.
type MatrixResult struct {
	Experiments []ExperimentResult
	// CacheHits and CacheMisses count cache traffic; both stay 0 when
	// no cache was configured.
	CacheHits   int
	CacheMisses int
	// ExecutedCells counts cells that ran or were cache-served (less
	// than Cells() when seed-0 repeats are replicated).
	ExecutedCells int
	// WorkersUsed is the pool size that actually executed (the
	// configured worker count clamped to the number of cells).
	WorkersUsed int
	// Canceled marks a matrix abandoned by context cancellation: the
	// result then holds only the cells that completed, and aggregates
	// only for grid points whose every repeat completed.
	Canceled bool
	Elapsed  time.Duration
}

// Cells returns the total cell count across experiments, including
// replicated seed-0 repeats.
func (r *MatrixResult) Cells() int {
	n := 0
	for _, e := range r.Experiments {
		n += len(e.Cells)
	}
	return n
}

type job struct {
	expIdx  int // index into resolved experiment list
	gridIdx int
	repeat  int
	flat    int // index into the per-experiment cell slice
}

// RunMatrixCtx executes the matrix through the worker pool. Cell order
// in the result is grid order × repeat order, independent of
// scheduling, so aggregated output is byte-identical for any worker
// count. Workers probe ctx before starting each cell, and ctx flows
// into every cell so a slow cell can be abandoned mid-flight rather
// than merely skipped. On cancellation it returns the partial
// MatrixResult — completed cells, aggregates for fully-completed grid
// points, and Canceled set — together with an error wrapping
// api.ErrCanceled.
func RunMatrixCtx(ctx context.Context, reg *Registry, spec MatrixSpec) (*MatrixResult, error) {
	start := time.Now() //pynamic:nondeterministic Elapsed stamp: provenance, excluded from canonical bytes
	names := spec.Experiments
	if len(names) == 0 {
		names = reg.Names()
	}
	exps := make([]*Experiment, len(names))
	grids := make([][]Params, len(names))
	seen := make(map[string]bool, len(names))
	for i, name := range names {
		if seen[name] {
			return nil, fmt.Errorf("runner: experiment %q requested twice", name)
		}
		seen[name] = true
		e := reg.Get(name)
		if e == nil {
			return nil, fmt.Errorf("runner: unknown experiment %q (have %v)", name, reg.Names())
		}
		exps[i] = e
		if g, ok := spec.Grids[name]; ok {
			grids[i] = g
		} else if e.Grid != nil {
			grids[i] = e.Grid()
		}
		if len(grids[i]) == 0 {
			return nil, fmt.Errorf("runner: experiment %q has an empty grid", name)
		}
	}

	repeats := spec.EffectiveRepeats()
	// Under the seed-0 sentinel every repeat of a cell receives seed 0
	// and is byte-identical by definition, so execute each grid point
	// once and replicate the result instead of burning repeats-1
	// redundant simulations per point.
	execRepeats := repeats
	if spec.Seed == 0 {
		execRepeats = 1
	}
	cells := make([][]CellResult, len(exps))
	var jobs []job
	for i := range exps {
		cells[i] = make([]CellResult, len(grids[i])*repeats)
		for g := range grids[i] {
			for rep := 0; rep < execRepeats; rep++ {
				jobs = append(jobs, job{expIdx: i, gridIdx: g, repeat: rep, flat: g*repeats + rep})
			}
		}
	}

	errs := make([]error, len(jobs))
	var hits, misses, executed int64
	var statMu sync.Mutex
	var failed, canceled atomic.Bool

	jobCh := make(chan int)
	var wg sync.WaitGroup
	workers := spec.EffectiveWorkers()
	if workers > len(jobs) {
		workers = len(jobs)
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ji := range jobCh {
				// Fail fast: once any cell has errored the matrix
				// result is discarded anyway, so skip remaining work.
				// A canceled matrix likewise skips everything not yet
				// started — completed cells survive as the partial
				// result.
				if failed.Load() {
					continue
				}
				if ctx.Err() != nil {
					canceled.Store(true)
					continue
				}
				j := jobs[ji]
				e := exps[j.expIdx]
				p := grids[j.expIdx][j.gridIdx]
				canon := p.Canonical()
				seed := CellSeed(spec.Seed, e.Name, j.repeat)
				cell := CellResult{
					Experiment: e.Name,
					Params:     p,
					Repeat:     j.repeat,
					Seed:       seed,
				}
				key := CacheKey(e.Name, canon, seed)
				if spec.Cache != nil {
					if m, ok := spec.Cache.Get(key); ok {
						cell.Metrics, cell.CacheHit = m, true
					}
				}
				if !cell.CacheHit {
					m, err := e.Run(ctx, p, seed)
					if err != nil {
						if errors.Is(err, api.ErrCanceled) {
							canceled.Store(true)
							continue
						}
						errs[ji] = fmt.Errorf("%s %s repeat %d: %w", e.Name, canon, j.repeat, err)
						failed.Store(true)
						continue
					}
					cell.Metrics = m
					if spec.Cache != nil {
						spec.Cache.Put(key, m)
					}
				}
				statMu.Lock()
				executed++
				if spec.Cache != nil {
					if cell.CacheHit {
						hits++
					} else {
						misses++
					}
				}
				statMu.Unlock()
				cells[j.expIdx][j.flat] = cell
			}
		}()
	}
	for ji := range jobs {
		jobCh <- ji
	}
	close(jobCh)
	wg.Wait()

	for _, err := range errs { // first error in deterministic job order
		if err != nil {
			return nil, err
		}
	}

	if execRepeats < repeats {
		for i := range exps {
			for g := range grids[i] {
				base := cells[i][g*repeats]
				if base.Metrics == nil {
					continue // grid point never executed (canceled)
				}
				for rep := 1; rep < repeats; rep++ {
					c := base
					c.Repeat = rep
					c.Metrics = base.Metrics.Clone()
					cells[i][g*repeats+rep] = c
				}
			}
		}
	}

	res := &MatrixResult{
		CacheHits:     int(hits),
		CacheMisses:   int(misses),
		ExecutedCells: int(executed),
		WorkersUsed:   workers,
		Canceled:      canceled.Load() || ctx.Err() != nil,
	}
	for i, e := range exps {
		er := ExperimentResult{
			Name:    e.Name,
			Repeats: repeats,
			Seed:    spec.Seed,
		}
		for _, c := range cells[i] {
			if c.Metrics != nil {
				er.Cells = append(er.Cells, c)
			}
		}
		for g := range grids[i] {
			point := cells[i][g*repeats : (g+1)*repeats]
			complete := true
			for _, c := range point {
				if c.Metrics == nil {
					complete = false
					break
				}
			}
			if complete {
				er.Aggregates = append(er.Aggregates, AggregateCells(grids[i][g], point))
			}
		}
		res.Experiments = append(res.Experiments, er)
	}
	res.Elapsed = time.Since(start) //pynamic:nondeterministic Elapsed stamp: provenance, excluded from canonical bytes

	// Cell events were produced inside the pool, so they are delivered
	// here, at the barrier, in canonical cell order.
	for _, er := range res.Experiments {
		for _, c := range er.Cells {
			spec.Events.Emit(api.Event{
				Kind:       api.CellDone,
				Experiment: c.Experiment,
				Cell:       c.Params.Canonical(),
				Repeat:     c.Repeat,
				Sec:        c.Metrics["total_sec"],
				CacheHit:   c.CacheHit,
			})
		}
	}

	if res.Canceled {
		return res, fmt.Errorf("runner: matrix canceled after %d of %d executed cells: %w",
			res.ExecutedCells, len(jobs), api.ErrCanceled)
	}
	return res, nil
}
