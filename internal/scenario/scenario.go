// Package scenario is the composable scenario engine: it turns a
// workload description — generator configuration, driver build-mode
// schedule, cluster/task topology — into runnable experiments that go
// through the runner's worker pool like any paper sweep.
//
// A Scenario bundles a parameter grid (Knobs), a cell function (Run),
// and an expected-invariant hook (Check). The invariant hook is the
// part the paper's fixed tables cannot give us: every scenario states
// the relationships its physics must honour (warm I/O never exceeds
// cold I/O, a cached dlopen round never exceeds the fresh round, lazy
// binding shifts cost from import to visit, ...) and the engine fails
// the cell if a run violates them — so the catalog doubles as an
// executable consistency suite for the simulator.
//
// Every scenario is deterministic in (params, seed): the runner's
// derived per-cell seeds make two matrix runs at different worker
// counts byte-identical, and seed 0 keeps the paper-default workload
// seed, matching the convention in internal/experiments.
//
// Register installs the whole catalog into a runner registry under
// names prefixed "scenario:"; cmd/pynamic-runner expands the pattern
// `-experiments 'scenario:*'` to all of them.
package scenario

import (
	"context"
	"fmt"

	"repro/internal/api"
	"repro/internal/cluster"
	"repro/internal/dynld"
	"repro/internal/fsim"
	"repro/internal/memsim"
	"repro/internal/pygen"
	"repro/internal/runner"
	"repro/internal/simtime"
)

// Prefix namespaces catalog scenarios in the experiment registry.
const Prefix = "scenario:"

// Scenario is one catalog entry: a named, parameterized workload shape
// with an executable invariant contract.
type Scenario struct {
	// Name is the catalog name (registered as Prefix+Name).
	Name string
	// Description is a one-line summary for -list output.
	Description string
	// Knobs returns the default parameter grid.
	Knobs func() []runner.Params
	// Run executes one cell; seed follows the runner convention
	// (0 = paper-default workload seed, nonzero fully determines the
	// result). A canceled ctx makes Run return an error wrapping
	// api.ErrCanceled.
	Run func(ctx context.Context, p runner.Params, seed uint64) (runner.Metrics, error)
	// Check validates the cell's expected invariants; a violation
	// fails the cell. Nil means no invariants beyond "Run succeeded".
	Check func(p runner.Params, m runner.Metrics) error
}

// Experiment adapts the scenario to the runner registry, wrapping Run
// so the invariant hook executes on every cell.
func (s *Scenario) Experiment() *runner.Experiment {
	return &runner.Experiment{
		Name:        Prefix + s.Name,
		Description: s.Description,
		Grid:        s.Knobs,
		Run: func(ctx context.Context, p runner.Params, seed uint64) (runner.Metrics, error) {
			m, err := s.Run(ctx, p, seed)
			if err != nil {
				return nil, err
			}
			if s.Check != nil {
				if err := s.Check(p, m); err != nil {
					return nil, fmt.Errorf("scenario %s: invariant violated: %w", s.Name, err)
				}
			}
			return m, nil
		},
	}
}

// Register installs every catalog scenario into reg.
func Register(reg *runner.Registry) {
	for _, s := range Catalog() {
		reg.MustRegister(s.Experiment())
	}
}

// Names returns the registered experiment names of the catalog, in
// catalog order.
func Names() []string {
	var out []string
	for _, s := range Catalog() {
		out = append(out, Prefix+s.Name)
	}
	return out
}

// seededConfig builds the scenario workload configuration: the LLNL
// model at reduced DSO count (scale_div) and per-DSO function count
// (funcs_div), reseeded per the runner's sentinel convention.
func seededConfig(seed uint64, p runner.Params) (pygen.Config, error) {
	scaleDiv, ok := p.LookupInt("scale_div")
	if !ok {
		return pygen.Config{}, fmt.Errorf("missing parameter %q", "scale_div")
	}
	if scaleDiv < 1 {
		return pygen.Config{}, fmt.Errorf("scale_div must be >= 1, got %d", scaleDiv)
	}
	funcsDiv, ok := p.LookupInt("funcs_div")
	if !ok {
		return pygen.Config{}, fmt.Errorf("missing parameter %q", "funcs_div")
	}
	if funcsDiv < 1 {
		return pygen.Config{}, fmt.Errorf("funcs_div must be >= 1, got %d", funcsDiv)
	}
	cfg := pygen.LLNLModel()
	if seed != 0 {
		cfg.Seed = seed
	}
	return cfg.Scaled(scaleDiv).ScaledFuncs(funcsDiv), nil
}

// harness is the substrate for scenarios that drive the loader and
// interpreter directly instead of through driver.RunCtx: one task's
// memory model, filesystem, clock, and dynamic linker.
type harness struct {
	mem   memsim.Memory
	fs    *fsim.FS
	clock *simtime.Clock
	ld    *dynld.Loader
	hz    float64
}

// newHarness builds a harness over nodes NFS clients with the workload
// installed and caches dropped (cold start).
func newHarness(w *pygen.Workload, nodes int, seed uint64) (*harness, error) {
	if nodes < 1 {
		nodes = 1
	}
	fs, err := fsim.New(fsim.Defaults(), nodes)
	if err != nil {
		return nil, err
	}
	cl := cluster.Zeus()
	h := &harness{
		mem:   memsim.NewAnalytic(memsim.ZeusConfig()),
		fs:    fs,
		clock: simtime.NewClock(cl.CoreHz),
		hz:    cl.CoreHz,
	}
	h.ld = dynld.New(h.mem, h.fs, h.clock, dynld.Options{
		Seed:    seed,
		Clients: nodes,
	})
	for _, img := range w.AllImages() {
		h.ld.Install(img)
	}
	h.ld.Install(w.Exe)
	h.fs.DropCaches()
	return h, nil
}

// checkEvery is how many modules a cell that drives the loader itself
// processes between cancellation probes — the job engine's rank
// pipeline batch size, so a canceled cell stops within a few modules'
// simulated work.
const checkEvery = 32

// checkpoint probes ctx before every checkEvery-th module i. A probe
// only reads ctx.Err(), so it never changes a cell's metrics.
func checkpoint(ctx context.Context, i int) error {
	if i%checkEvery != 0 {
		return nil
	}
	return api.Checkpoint(ctx)
}

// mark is a phase-timer start point (clock + CPU cycles).
type mark struct {
	m      simtime.Mark
	cycles uint64
}

func (h *harness) mark() mark {
	return mark{m: h.clock.Mark(), cycles: h.mem.Cycles()}
}

// since returns simulated seconds elapsed: I/O seconds from the clock
// plus CPU cycles at the core frequency, mirroring the driver's phase
// timer.
func (h *harness) since(mk mark) float64 {
	return h.clock.Since(mk.m) + float64(h.mem.Cycles()-mk.cycles)/h.hz
}

// checkAll runs each named check in order and returns the first
// failure, labelled.
func checkAll(checks ...func() error) error {
	for _, c := range checks {
		if err := c(); err != nil {
			return err
		}
	}
	return nil
}

// wantLE fails unless m[a] <= m[b] (with a tiny relative slack for
// float accumulation order).
func wantLE(m runner.Metrics, a, b string) func() error {
	return func() error {
		va, oka := m[a]
		vb, okb := m[b]
		if !oka || !okb {
			return fmt.Errorf("metric %q or %q missing", a, b)
		}
		if va > vb*(1+1e-9) {
			return fmt.Errorf("%s = %g exceeds %s = %g", a, va, b, vb)
		}
		return nil
	}
}

// wantPositive fails unless every named metric is strictly positive.
func wantPositive(m runner.Metrics, keys ...string) func() error {
	return func() error {
		for _, k := range keys {
			v, ok := m[k]
			if !ok {
				return fmt.Errorf("metric %q missing", k)
			}
			if v <= 0 {
				return fmt.Errorf("metric %s = %g, want > 0", k, v)
			}
		}
		return nil
	}
}

// wantEqual fails unless m[a] == m[b] exactly (used for counters that
// must not depend on ordering or scheduling).
func wantEqual(m runner.Metrics, a, b string) func() error {
	return func() error {
		if m[a] != m[b] {
			return fmt.Errorf("%s = %g differs from %s = %g", a, m[a], b, m[b])
		}
		return nil
	}
}
