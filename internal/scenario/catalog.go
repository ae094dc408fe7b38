package scenario

import (
	"context"
	"fmt"

	"repro/internal/api"
	"repro/internal/cluster"
	"repro/internal/driver"
	"repro/internal/dynld"
	"repro/internal/elfimg"
	"repro/internal/fsim"
	"repro/internal/job"
	"repro/internal/memsim"
	"repro/internal/pygen"
	"repro/internal/pyvm"
	"repro/internal/runner"
	"repro/internal/simtime"
	"repro/internal/toolsim"
	"repro/internal/xrand"
)

// Catalog returns the scenario catalog in presentation order. Each
// entry extends the paper's fixed S/A studies with a workload shape
// the original benchmark never measured.
func Catalog() []*Scenario {
	return []*Scenario{
		startupStorm(),
		reimportChurn(),
		mixedBuilds(),
		importShuffle(),
		nfsColdWarm(),
		symbolCollision(),
		stragglerNode(),
		rankSkew(),
	}
}

// defaultShape is the standard workload reduction for catalog cells:
// small enough for CI matrices, large enough that loader effects
// dominate noise.
func defaultShape() runner.Params {
	return runner.Params{"scale_div": 20, "funcs_div": 8}
}

func withShape(extra runner.Params) runner.Params {
	p := defaultShape()
	for k, v := range extra {
		p[k] = v
	}
	return p
}

// ---------------------------------------------------------------------
// scenario:startup-storm — every task of a large job attaches a tool at
// once (the §II.B "tool startup problem" pushed past the paper's 32
// tasks), cold then warm.
func startupStorm() *Scenario {
	return &Scenario{
		Name: "startup-storm",
		Description: "tool-startup storm at scale: cold vs warm debugger attach " +
			"across job sizes",
		Knobs: func() []runner.Params {
			var grid []runner.Params
			for _, tasks := range []int{32, 128, 512} {
				grid = append(grid, withShape(runner.Params{"tasks": tasks}))
			}
			return grid
		},
		Run: func(ctx context.Context, p runner.Params, seed uint64) (runner.Metrics, error) {
			tasks := p.Int("tasks")
			if tasks < 1 {
				return nil, fmt.Errorf("tasks must be >= 1, got %d", tasks)
			}
			cfg, err := seededConfig(seed, p)
			if err != nil {
				return nil, err
			}
			w, err := pygen.GenerateCtx(ctx, cfg)
			if err != nil {
				return nil, err
			}
			place, err := cluster.Place(cluster.Zeus(), tasks)
			if err != nil {
				return nil, err
			}
			fs, err := fsim.New(fsim.Defaults(), place.NodesUsed())
			if err != nil {
				return nil, err
			}
			tc := toolsim.Config{Workload: w, Tasks: tasks, FS: fs}
			cold, err := toolsim.AttachCtx(ctx, tc)
			if err != nil {
				return nil, err
			}
			warm, err := toolsim.AttachCtx(ctx, tc)
			if err != nil {
				return nil, err
			}
			return runner.Metrics{
				"cold_phase1_sec": cold.Phase1,
				"cold_phase2_sec": cold.Phase2,
				"warm_phase1_sec": warm.Phase1,
				"warm_phase2_sec": warm.Phase2,
				"cold_total_sec":  cold.Total(),
				"warm_total_sec":  warm.Total(),
			}, nil
		},
		Check: func(p runner.Params, m runner.Metrics) error {
			return checkAll(
				wantPositive(m, "cold_phase1_sec", "cold_phase2_sec",
					"warm_phase1_sec", "warm_phase2_sec"),
				// The first attach leaves every DSO in the node buffer
				// caches; the warm attach can only be cheaper.
				wantLE(m, "warm_phase1_sec", "cold_phase1_sec"),
				wantLE(m, "warm_total_sec", "cold_total_sec"),
			)
		},
	}
}

// ---------------------------------------------------------------------
// scenario:reimport-churn — rolling re-import / dlclose churn: a
// long-lived process (an interactive session, a plugin host) repeatedly
// imports and drops the module set. Round 1 pays fresh loads; every
// later round pays the paper's §IV.A cached-dlopen re-verification
// walk.
func reimportChurn() *Scenario {
	return &Scenario{
		Name: "reimport-churn",
		Description: "rolling re-import/dlclose churn: fresh first round vs " +
			"cached steady-state rounds",
		Knobs: func() []runner.Params {
			return []runner.Params{withShape(runner.Params{"rounds": 4})}
		},
		Run: func(ctx context.Context, p runner.Params, seed uint64) (runner.Metrics, error) {
			rounds := p.Int("rounds")
			if rounds < 2 {
				return nil, fmt.Errorf("rounds must be >= 2, got %d", rounds)
			}
			cfg, err := seededConfig(seed, p)
			if err != nil {
				return nil, err
			}
			w, err := pygen.GenerateCtx(ctx, cfg)
			if err != nil {
				return nil, err
			}
			h, err := newHarness(w, 1, seed)
			if err != nil {
				return nil, err
			}
			if _, err := h.ld.StartupExecutable(w.Exe); err != nil {
				return nil, err
			}
			var first, steady float64
			for r := 0; r < rounds; r++ {
				mk := h.mark()
				for i, img := range w.Modules {
					if err := checkpoint(ctx, i); err != nil {
						return nil, err
					}
					if _, err := h.ld.Dlopen(img.Name, dynld.RTLDNow); err != nil {
						return nil, err
					}
				}
				secs := h.since(mk)
				if r == 0 {
					first = secs
				} else {
					steady += secs
				}
				for _, img := range w.Modules {
					if err := h.ld.Dlclose(h.ld.Lookup(img.Name)); err != nil {
						return nil, err
					}
				}
			}
			st := h.ld.Stats()
			steady /= float64(rounds - 1)
			return runner.Metrics{
				"first_round_sec":  first,
				"steady_round_sec": steady,
				"churn_speedup_x":  first / steady,
				"fresh_loads":      float64(st.FreshLoads),
				"cached_opens":     float64(st.CachedOpens),
				"dlcloses":         float64(st.Dlcloses),
				"modules":          float64(len(w.Modules)),
			}, nil
		},
		Check: func(p runner.Params, m runner.Metrics) error {
			rounds := float64(p.Int("rounds"))
			return checkAll(
				wantPositive(m, "first_round_sec", "steady_round_sec", "modules"),
				// Steady-state rounds serve every dlopen from the link
				// map; they can't exceed the fresh round.
				wantLE(m, "steady_round_sec", "first_round_sec"),
				func() error {
					if want := m["modules"] * (rounds - 1); m["cached_opens"] != want {
						return fmt.Errorf("cached_opens = %g, want %g", m["cached_opens"], want)
					}
					if want := m["modules"] * rounds; m["dlcloses"] != want {
						return fmt.Errorf("dlcloses = %g, want %g", m["dlcloses"], want)
					}
					if m["fresh_loads"] < m["modules"] {
						return fmt.Errorf("fresh_loads = %g < modules = %g",
							m["fresh_loads"], m["modules"])
					}
					return nil
				},
			)
		},
	}
}

// ---------------------------------------------------------------------
// scenario:mixed-builds — multi-tenant mixed builds: three tenants of
// one node run the same workload as Vanilla (cold), Link (warm), and
// Link+Bind (warm), sharing the node's buffer cache. Measures how the
// paper's Table I redistributes cost when builds coexist.
func mixedBuilds() *Scenario {
	return &Scenario{
		Name: "mixed-builds",
		Description: "multi-tenant mixed builds sharing one buffer cache: " +
			"vanilla cold, link + link-bind warm",
		Knobs: func() []runner.Params {
			return []runner.Params{withShape(runner.Params{"tasks": 8})}
		},
		Run: func(ctx context.Context, p runner.Params, seed uint64) (runner.Metrics, error) {
			tasks := p.Int("tasks")
			if tasks < 1 {
				return nil, fmt.Errorf("tasks must be >= 1, got %d", tasks)
			}
			cfg, err := seededConfig(seed, p)
			if err != nil {
				return nil, err
			}
			w, err := pygen.GenerateCtx(ctx, cfg)
			if err != nil {
				return nil, err
			}
			place, err := cluster.Place(cluster.Zeus(), tasks)
			if err != nil {
				return nil, err
			}
			fs, err := fsim.New(fsim.Defaults(), place.NodesUsed())
			if err != nil {
				return nil, err
			}
			run := func(mode driver.BuildMode, warm bool) (*driver.Metrics, error) {
				return driver.RunCtx(ctx, driver.Config{
					Mode: mode, Workload: w, NTasks: tasks,
					SharedFS: fs, WarmFS: warm, Seed: cfg.Seed,
				})
			}
			van, err := run(driver.Vanilla, false) // cold tenant
			if err != nil {
				return nil, err
			}
			link, err := run(driver.Link, true) // warm tenants
			if err != nil {
				return nil, err
			}
			bind, err := run(driver.LinkBind, true)
			if err != nil {
				return nil, err
			}
			return runner.Metrics{
				"vanilla_total_sec":  van.TotalSec(),
				"link_total_sec":     link.TotalSec(),
				"linkbind_total_sec": bind.TotalSec(),
				"vanilla_visit_sec":  van.VisitSec,
				"link_visit_sec":     link.VisitSec,
				"cold_io_sec":        van.Loader.IOSeconds,
				"warm_io_sec":        link.Loader.IOSeconds,
				"makespan_sec":       van.TotalSec() + link.TotalSec() + bind.TotalSec(),
			}, nil
		},
		Check: func(p runner.Params, m runner.Metrics) error {
			return checkAll(
				wantPositive(m, "vanilla_total_sec", "link_total_sec",
					"linkbind_total_sec", "makespan_sec"),
				// The cold tenant primed the cache: warm tenants map the
				// same bytes with less I/O.
				wantLE(m, "warm_io_sec", "cold_io_sec"),
				// The paper's core result: lazy binding moves resolution
				// cost into the visit phase.
				wantLE(m, "vanilla_visit_sec", "link_visit_sec"),
			)
		},
	}
}

// ---------------------------------------------------------------------
// scenario:import-shuffle — import-order shuffle: the same workload
// imported in canonical versus seed-shuffled order. Link-map positions
// (hence scope-walk traffic) shift, but resolution counts and executed
// functions must not.
func importShuffle() *Scenario {
	return &Scenario{
		Name: "import-shuffle",
		Description: "import-order shuffle: scope positions move, resolution " +
			"counts must not",
		Knobs: func() []runner.Params {
			return []runner.Params{defaultShape()}
		},
		Run: func(ctx context.Context, p runner.Params, seed uint64) (runner.Metrics, error) {
			cfg, err := seededConfig(seed, p)
			if err != nil {
				return nil, err
			}
			w, err := pygen.GenerateCtx(ctx, cfg)
			if err != nil {
				return nil, err
			}
			run := func(order []string) (float64, dynld.Stats, pyvm.Stats, error) {
				h, err := newHarness(w, 1, seed)
				if err != nil {
					return 0, dynld.Stats{}, pyvm.Stats{}, err
				}
				if _, err := h.ld.StartupExecutable(w.Exe); err != nil {
					return 0, dynld.Stats{}, pyvm.Stats{}, err
				}
				interp := pyvm.New(h.mem, h.ld, w.Find, pyvm.Options{})
				mk := h.mark()
				mods := make([]*pyvm.Module, 0, len(order))
				for i, name := range order {
					if err := checkpoint(ctx, i); err != nil {
						return 0, dynld.Stats{}, pyvm.Stats{}, err
					}
					m, err := interp.Import(name)
					if err != nil {
						return 0, dynld.Stats{}, pyvm.Stats{}, err
					}
					mods = append(mods, m)
				}
				for i, m := range mods {
					if err := checkpoint(ctx, i); err != nil {
						return 0, dynld.Stats{}, pyvm.Stats{}, err
					}
					if err := interp.VisitEntry(m); err != nil {
						return 0, dynld.Stats{}, pyvm.Stats{}, err
					}
				}
				return h.since(mk), h.ld.Stats(), interp.Stats(), nil
			}

			canonical := w.ModuleNames()
			shuffled := append([]string(nil), canonical...)
			rng := xrand.New(cfg.Seed ^ 0x5f0f)
			for i, j := range rng.Perm(len(shuffled)) {
				shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
			}

			inSec, inLD, inVM, err := run(canonical)
			if err != nil {
				return nil, err
			}
			shSec, shLD, shVM, err := run(shuffled)
			if err != nil {
				return nil, err
			}
			return runner.Metrics{
				"inorder_total_sec":  inSec,
				"shuffled_total_sec": shSec,
				"order_delta_x":      shSec / inSec,
				"inorder_lookups":    float64(inLD.Lookups),
				"shuffled_lookups":   float64(shLD.Lookups),
				"inorder_calls":      float64(inVM.Calls),
				"shuffled_calls":     float64(shVM.Calls),
				"inorder_probes":     float64(inLD.ScopeProbes),
				"shuffled_probes":    float64(shLD.ScopeProbes),
			}, nil
		},
		Check: func(p runner.Params, m runner.Metrics) error {
			return checkAll(
				wantPositive(m, "inorder_total_sec", "shuffled_total_sec",
					"inorder_lookups", "inorder_calls", "inorder_probes"),
				// Both orders load and relocate the identical object
				// set: the number of resolutions and of executed
				// function bodies is order-invariant.
				wantEqual(m, "inorder_lookups", "shuffled_lookups"),
				wantEqual(m, "inorder_calls", "shuffled_calls"),
			)
		},
	}
}

// ---------------------------------------------------------------------
// scenario:nfs-cold-warm — the same job started twice on one node set:
// first against dropped buffer caches (cold NFS staging), then again
// warm. Separates the driver's I/O-bound startup share from its
// CPU-bound share.
func nfsColdWarm() *Scenario {
	return &Scenario{
		Name: "nfs-cold-warm",
		Description: "cold vs warm NFS buffer cache for the same driver run: " +
			"I/O share of startup",
		Knobs: func() []runner.Params {
			return []runner.Params{withShape(runner.Params{"tasks": 16})}
		},
		Run: func(ctx context.Context, p runner.Params, seed uint64) (runner.Metrics, error) {
			tasks := p.Int("tasks")
			if tasks < 1 {
				return nil, fmt.Errorf("tasks must be >= 1, got %d", tasks)
			}
			cfg, err := seededConfig(seed, p)
			if err != nil {
				return nil, err
			}
			w, err := pygen.GenerateCtx(ctx, cfg)
			if err != nil {
				return nil, err
			}
			place, err := cluster.Place(cluster.Zeus(), tasks)
			if err != nil {
				return nil, err
			}
			fs, err := fsim.New(fsim.Defaults(), place.NodesUsed())
			if err != nil {
				return nil, err
			}
			run := func(warm bool) (*driver.Metrics, error) {
				return driver.RunCtx(ctx, driver.Config{
					Mode: driver.Vanilla, Workload: w, NTasks: tasks,
					SharedFS: fs, WarmFS: warm, Seed: cfg.Seed,
				})
			}
			cold, err := run(false)
			if err != nil {
				return nil, err
			}
			warm, err := run(true)
			if err != nil {
				return nil, err
			}
			return runner.Metrics{
				"cold_total_sec":  cold.TotalSec(),
				"warm_total_sec":  warm.TotalSec(),
				"cold_io_sec":     cold.Loader.IOSeconds,
				"warm_io_sec":     warm.Loader.IOSeconds,
				"warm_speedup_x":  cold.TotalSec() / warm.TotalSec(),
				"cold_import_sec": cold.ImportSec,
				"warm_import_sec": warm.ImportSec,
			}, nil
		},
		Check: func(p runner.Params, m runner.Metrics) error {
			return checkAll(
				wantPositive(m, "cold_total_sec", "warm_total_sec", "cold_io_sec"),
				// The warm run's CPU work is identical; only I/O can
				// shrink, so both I/O seconds and the total must not
				// grow.
				wantLE(m, "warm_io_sec", "cold_io_sec"),
				wantLE(m, "warm_total_sec", "cold_total_sec"),
			)
		},
	}
}

// ---------------------------------------------------------------------
// scenario:symbol-collision — symbol-collision stress: a consumer whose
// relocations all resolve to a provider at the END of a deliberately
// deep search scope, with every provider symbol crammed into one SysV
// hash bucket (IDs congruent modulo the bucket count). The worst case
// of the paper's scope-walk cost model, unreachable with the stock
// generator.
func symbolCollision() *Scenario {
	return &Scenario{
		Name: "symbol-collision",
		Description: "worst-case scope walk: decoy-deep search scope plus " +
			"single-bucket hash chains",
		Knobs: func() []runner.Params {
			var grid []runner.Params
			for _, decoys := range []int{32, 128} {
				grid = append(grid, runner.Params{"decoys": decoys, "provider_syms": 64})
			}
			return grid
		},
		Run:   runSymbolCollision,
		Check: checkSymbolCollision,
	}
}

// ---------------------------------------------------------------------
// scenario:straggler-node — one node of the allocation has a degraded
// I/O path (sick disk driver, overloaded NIC). The per-rank job engine
// shows what rank-0 extrapolation structurally cannot: the job's phase
// times are gated by the straggler's ranks while every healthy rank is
// bit-identical to a clean run.
func stragglerNode() *Scenario {
	return &Scenario{
		Name: "straggler-node",
		Description: "I/O-degraded straggler node: job gated by its ranks, " +
			"healthy ranks untouched",
		Knobs: func() []runner.Params {
			var grid []runner.Params
			for _, ioScale := range []float64{4, 16} {
				grid = append(grid, withShape(runner.Params{
					"tasks": 32, "straggler_frac": 0.25, "io_scale": ioScale,
				}))
			}
			return grid
		},
		Run: func(ctx context.Context, p runner.Params, seed uint64) (runner.Metrics, error) {
			tasks := p.Int("tasks")
			if tasks < 1 {
				return nil, fmt.Errorf("tasks must be >= 1, got %d", tasks)
			}
			frac, ok := p.LookupFloat("straggler_frac")
			if !ok {
				return nil, fmt.Errorf("missing parameter %q", "straggler_frac")
			}
			ioScale, ok := p.LookupFloat("io_scale")
			if !ok {
				return nil, fmt.Errorf("missing parameter %q", "io_scale")
			}
			cfg, err := seededConfig(seed, p)
			if err != nil {
				return nil, err
			}
			w, err := pygen.GenerateCtx(ctx, cfg)
			if err != nil {
				return nil, err
			}
			// Workers 1: scenario cells already run in the runner's pool.
			base := job.Config{Mode: job.Vanilla, Workload: w, NTasks: tasks,
				Workers: 1, Seed: cfg.Seed}
			clean, err := job.RunCtx(ctx, base)
			if err != nil {
				return nil, err
			}
			degraded := base
			degraded.StragglerFrac = frac
			degraded.StragglerIOScale = ioScale
			slow, err := job.RunCtx(ctx, degraded)
			if err != nil {
				return nil, err
			}
			// The strongest isolation claim as a metric: the largest
			// per-rank startup delta across healthy ranks (must be 0).
			var healthyDrift, stragglerRanks float64
			for r := range slow.Ranks {
				if slow.Ranks[r].StragglerNode {
					stragglerRanks++
					continue
				}
				d := slow.Ranks[r].StartupSec - clean.Ranks[r].StartupSec
				if d < 0 {
					d = -d
				}
				if d > healthyDrift {
					healthyDrift = d
				}
			}
			return runner.Metrics{
				"clean_startup_sec":     clean.StartupSec,
				"straggler_startup_sec": slow.StartupSec,
				"startup_slowdown_x":    slow.StartupSec / clean.StartupSec,
				"startup_p99_sec":       slow.Startup.P99,
				"startup_mean_sec":      slow.Startup.Mean,
				"healthy_drift_sec":     healthyDrift,
				"straggler_nodes":       float64(len(slow.StragglerNodes)),
				"straggler_ranks":       stragglerRanks,
			}, nil
		},
		Check: func(p runner.Params, m runner.Metrics) error {
			return checkAll(
				wantPositive(m, "clean_startup_sec", "straggler_startup_sec",
					"straggler_nodes", "straggler_ranks"),
				// The job is gated by its slowest rank: degrading any
				// node can only push the job phase time up.
				wantLE(m, "clean_startup_sec", "straggler_startup_sec"),
				// Tail structure: mean ≤ p99 ≤ max(= job startup).
				wantLE(m, "startup_mean_sec", "startup_p99_sec"),
				wantLE(m, "startup_p99_sec", "straggler_startup_sec"),
				func() error {
					// Per-rank isolation: healthy ranks bit-identical.
					if m["healthy_drift_sec"] != 0 {
						return fmt.Errorf("healthy ranks drifted by %g s",
							m["healthy_drift_sec"])
					}
					return nil
				},
			)
		},
	}
}

// ---------------------------------------------------------------------
// scenario:rank-skew — per-rank CPU speed jitter (clock throttling, OS
// noise). Homogeneous jobs have perfectly flat per-rank distributions;
// skew widens them and the job time tracks the slowest rank, the
// tail-latency mechanism of real job startup.
func rankSkew() *Scenario {
	return &Scenario{
		Name: "rank-skew",
		Description: "seeded per-rank CPU skew: flat homogeneous baseline vs " +
			"widened tail, job gated by slowest rank",
		Knobs: func() []runner.Params {
			var grid []runner.Params
			for _, skew := range []float64{0.2, 0.5} {
				grid = append(grid, withShape(runner.Params{
					"tasks": 16, "skew": skew,
				}))
			}
			return grid
		},
		Run: func(ctx context.Context, p runner.Params, seed uint64) (runner.Metrics, error) {
			tasks := p.Int("tasks")
			if tasks < 1 {
				return nil, fmt.Errorf("tasks must be >= 1, got %d", tasks)
			}
			skew, ok := p.LookupFloat("skew")
			if !ok {
				return nil, fmt.Errorf("missing parameter %q", "skew")
			}
			cfg, err := seededConfig(seed, p)
			if err != nil {
				return nil, err
			}
			w, err := pygen.GenerateCtx(ctx, cfg)
			if err != nil {
				return nil, err
			}
			// Workers 1: scenario cells already run in the runner's pool.
			base := job.Config{Mode: job.Vanilla, Workload: w, NTasks: tasks,
				Workers: 1, Seed: cfg.Seed}
			flat, err := job.RunCtx(ctx, base)
			if err != nil {
				return nil, err
			}
			skewed := base
			skewed.RankSkew = skew
			res, err := job.RunCtx(ctx, skewed)
			if err != nil {
				return nil, err
			}
			return runner.Metrics{
				"flat_total_sec":    flat.TotalSec(),
				"flat_total_spread": flat.Total.Max - flat.Total.Min,
				"skew_total_sec":    res.TotalSec(),
				"skew_total_min":    res.Total.Min,
				"skew_total_mean":   res.Total.Mean,
				"skew_total_p99":    res.Total.P99,
				"skew_total_max":    res.Total.Max,
				"tail_stretch_x":    res.TotalSec() / flat.TotalSec(),
			}, nil
		},
		Check: func(p runner.Params, m runner.Metrics) error {
			return checkAll(
				wantPositive(m, "flat_total_sec", "skew_total_sec", "skew_total_min"),
				func() error {
					// Homogeneous ranks are exactly identical.
					if m["flat_total_spread"] != 0 {
						return fmt.Errorf("homogeneous spread = %g, want 0",
							m["flat_total_spread"])
					}
					return nil
				},
				// Skew only ever slows ranks: the fastest skewed rank is
				// no faster than the flat baseline, and the distribution
				// is genuinely widened and ordered.
				wantLE(m, "flat_total_sec", "skew_total_sec"),
				func() error {
					if m["skew_total_min"] < m["flat_total_sec"]*(1-1e-9) {
						return fmt.Errorf("skew sped a rank up: %g < %g",
							m["skew_total_min"], m["flat_total_sec"])
					}
					if m["skew_total_max"] <= m["skew_total_min"] {
						return fmt.Errorf("skew did not widen the distribution")
					}
					return nil
				},
				wantLE(m, "skew_total_mean", "skew_total_p99"),
				wantLE(m, "skew_total_p99", "skew_total_max"),
			)
		},
	}
}

// collisionStride keeps crafted symbol IDs congruent modulo any SysV
// bucket count the builder can choose (buckets are a power of two no
// larger than 1<<16 at these symbol counts), so every provider symbol
// lands on one chain.
const collisionStride = 1 << 16

func runSymbolCollision(ctx context.Context, p runner.Params, seed uint64) (runner.Metrics, error) {
	decoys := p.Int("decoys")
	nsyms := p.Int("provider_syms")
	if decoys < 1 || nsyms < 2 {
		return nil, fmt.Errorf("need decoys >= 1 and provider_syms >= 2, got %d/%d",
			decoys, nsyms)
	}
	// Seed shifts the crafted ID ranges without changing their
	// congruence structure (seed 0 = fixed default, as elsewhere).
	pbase := uint64(1)<<40 + (seed%1024)*uint64(collisionStride)*uint64(nsyms+1)

	provider := elfimg.NewBuilder("libprovider.so")
	providerIDs := make([]elfimg.SymID, nsyms)
	for i := 0; i < nsyms; i++ {
		providerIDs[i] = elfimg.SymID(pbase + uint64(i)*collisionStride)
		provider.AddSymbol(providerIDs[i], 220, 8, false)
	}
	providerImg, err := provider.Build()
	if err != nil {
		return nil, err
	}

	decoyImgs := make([]*elfimg.Image, decoys)
	for d := 0; d < decoys; d++ {
		if err := checkpoint(ctx, d); err != nil {
			return nil, err
		}
		b := elfimg.NewBuilder(fmt.Sprintf("libdecoy%03d.so", d))
		for s := 0; s < 32; s++ {
			id := elfimg.SymID(uint64(1)<<50 + uint64(d)<<24 + uint64(s)*8 + 1)
			b.AddSymbol(id, 200, 8, false)
		}
		img, err := b.Build()
		if err != nil {
			return nil, err
		}
		decoyImgs[d] = img
	}

	consumer := elfimg.NewBuilder("libconsumer.so")
	consumer.AddFunc(elfimg.SymID(uint64(1)<<52+uint64(seed%1024)), 180, 64, 120, 32, false)
	for d := range decoyImgs {
		consumer.AddDep(decoyImgs[d].Name)
	}
	consumer.AddDep(providerImg.Name)
	for _, id := range providerIDs {
		consumer.AddGOTReloc(id)
	}
	consumerImg, err := consumer.Build()
	if err != nil {
		return nil, err
	}

	mem := memsim.NewAnalytic(memsim.ZeusConfig())
	fs, err := fsim.New(fsim.Defaults(), 1)
	if err != nil {
		return nil, err
	}
	cl := cluster.Zeus()
	clock := simtime.NewClock(cl.CoreHz)
	ld := dynld.New(mem, fs, clock, dynld.Options{Seed: seed, Clients: 1})
	for _, img := range decoyImgs {
		ld.Install(img)
	}
	ld.Install(providerImg)
	ld.Install(consumerImg)
	fs.DropCaches()
	if err := api.Checkpoint(ctx); err != nil {
		return nil, err
	}

	startCycles := mem.Cycles()
	startMark := clock.Mark()
	if _, err := ld.Dlopen(consumerImg.Name, dynld.RTLDNow); err != nil {
		return nil, err
	}
	resolveSec := clock.Since(startMark) + float64(mem.Cycles()-startCycles)/cl.CoreHz

	st := ld.Stats()
	var chainSum float64
	for i := range providerIDs {
		chainSum += float64(providerImg.ChainLen(providerImg.LookupDef(providerIDs[i])))
	}
	return runner.Metrics{
		"lookups":           float64(st.Lookups),
		"scope_probes":      float64(st.ScopeProbes),
		"probes_per_lookup": float64(st.ScopeProbes) / float64(st.Lookups),
		"avg_chain_len":     chainSum / float64(nsyms),
		"resolve_sec":       resolveSec,
	}, nil
}

func checkSymbolCollision(p runner.Params, m runner.Metrics) error {
	decoys := float64(p.Int("decoys"))
	nsyms := float64(p.Int("provider_syms"))
	return checkAll(
		wantPositive(m, "lookups", "scope_probes", "resolve_sec"),
		func() error {
			if m["lookups"] != nsyms {
				return fmt.Errorf("lookups = %g, want %g (one per consumer reloc)",
					m["lookups"], nsyms)
			}
			// Every lookup probes the whole decoy scope before reaching
			// the provider: consumer + decoys ahead of it, plus the
			// definer probe.
			ppl := m["probes_per_lookup"]
			if ppl < decoys+1 || ppl > decoys+3 {
				return fmt.Errorf("probes_per_lookup = %g outside [%g, %g]",
					ppl, decoys+1, decoys+3)
			}
			// The crafted IDs share one bucket: the mean successful
			// chain walk is (n+1)/2, far above a healthy table's ~2.
			if m["avg_chain_len"] < nsyms/4 {
				return fmt.Errorf("avg_chain_len = %g, want >= %g (collisions not happening)",
					m["avg_chain_len"], nsyms/4)
			}
			return nil
		},
	)
}
