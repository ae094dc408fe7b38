// Package toolsim models the development-tool side of the paper: a
// TotalView-style parallel debugger attaching to an N-task job whose
// processes load hundreds of DSOs.
//
// Two artifacts are reproduced:
//
//   - The §II.B.3 closed-form cost model: an application linking and
//     loading M libraries at N tasks under tool control stops at least
//     M×N times, costing M × N × (T1 + B × T2) where T1 handles one
//     load event, B is the live breakpoint count and T2 reinserts one
//     breakpoint (the pre-4.3.2 AIX ptrace requirement). The paper's
//     example — 500 libraries, 500 tasks, 10 ms, 10 breakpoints,
//     1 ms — comes to ~83 minutes, double the ~41.5 minutes without
//     reinsertion. CostModel gives the closed form; SimulateEvents
//     replays it event by event as a cross-check.
//
//   - Table IV: TotalView startup split into two phases. Phase 1
//     attaches to all tasks and ingests link maps and symbol tables
//     for pre-linked DSOs — dominated cold by seek-bound NFS reads of
//     symbol+debug sections (which warm every node's disk buffer
//     cache, the mechanism behind "Warm Startup was about twice as
//     fast"), and warm by DWARF parsing. Phase 2 handles the dynamic
//     load events from the initial Python imports — per-event tool
//     work that barely differs cold vs. warm because phase 1 already
//     cached the files.
package toolsim

import (
	"context"
	"fmt"

	"repro/internal/api"
	"repro/internal/cluster"
	"repro/internal/fsim"
	"repro/internal/pygen"
)

// CostModel is the §II.B.3 closed form.
type CostModel struct {
	Libraries    int     // M: libraries linked and loaded
	Tasks        int     // N: MPI tasks
	EventTime    float64 // T1: seconds to handle one load event
	Breakpoints  int     // B: existing breakpoints
	ReinsertTime float64 // T2: seconds to reinsert one breakpoint
}

// PaperExample returns the constants of the in-text example: "∼500
// (shared libraries) x ∼500 (tasks) x (∼10 msec + (∼10 (breakpoints) x
// ∼1 msec)) = ∼83 minutes".
func PaperExample() CostModel {
	return CostModel{
		Libraries:    500,
		Tasks:        500,
		EventTime:    10e-3,
		Breakpoints:  10,
		ReinsertTime: 1e-3,
	}
}

// TotalSeconds evaluates M × N × (T1 + B × T2).
func (c CostModel) TotalSeconds() float64 {
	return float64(c.Libraries) * float64(c.Tasks) *
		(c.EventTime + float64(c.Breakpoints)*c.ReinsertTime)
}

// WithoutReinsertion returns the cost with B = 0 (the "already
// excessive ~41.5 minutes required just to process M x N libraries").
func (c CostModel) WithoutReinsertion() float64 {
	d := c
	d.Breakpoints = 0
	return d.TotalSeconds()
}

// SimulateEvents replays the model as a discrete event simulation: each
// task stops on each load event; the tool services events one at a
// time, reinserting every live breakpoint. It exists to validate the
// closed form (and is the natural place to extend with batching
// optimizations).
func (c CostModel) SimulateEvents() float64 {
	var total float64
	for lib := 0; lib < c.Libraries; lib++ {
		for task := 0; task < c.Tasks; task++ {
			total += c.EventTime
			for b := 0; b < c.Breakpoints; b++ {
				total += c.ReinsertTime
			}
		}
	}
	return total
}

// Params holds the tool's cost constants, calibrated against Table IV
// (32 tasks on Zeus).
type Params struct {
	// LaunchOverhead: starting the parallel job and bootstrapping the
	// tool daemons.
	LaunchOverhead float64
	// AttachEvent: per-library, per-task link-map update during the
	// initial attach (phase 1).
	AttachEvent float64
	// LoadEvent: T1 — handling one dynamic-load event for one task
	// (phase 2).
	LoadEvent float64
	// Breakpoints live during startup, each costing ReinsertTime per
	// event (zero on Linux/Zeus; nonzero models the AIX ptrace rule).
	Breakpoints  int
	ReinsertTime float64
	// ParseBandwidth: bytes/second of symbol+debug parsing (frontend,
	// shared across tasks when link maps are homogeneous).
	ParseBandwidth float64
	// ScatterFactor: symbol/debug ingest is seek-bound small-block
	// I/O, achieving only 1/ScatterFactor of streaming bandwidth.
	ScatterFactor float64
}

// DefaultParams returns constants that reproduce Table IV's shape.
func DefaultParams() Params {
	return Params{
		LaunchOverhead: 5,
		AttachEvent:    0.4e-3,
		LoadEvent:      22e-3,
		Breakpoints:    0,
		ReinsertTime:   1e-3,
		ParseBandwidth: 40e6,
		ScatterFactor:  12,
	}
}

// Config describes one tool-startup scenario.
type Config struct {
	Workload *pygen.Workload
	Tasks    int
	Cluster  cluster.Config
	FS       *fsim.FS // shared across cold/warm invocations
	Params   Params
	// HeterogeneousLinkMaps models address-randomized jobs (§II.B.2):
	// the tool cannot share parsed state across tasks and re-parses per
	// task (the A3 ablation).
	HeterogeneousLinkMaps bool
}

// Phases is a Table IV column: the two startup phases in seconds.
type Phases struct {
	Phase1 float64
	Phase2 float64
}

// Total returns phase1 + phase2.
func (p Phases) Total() float64 { return p.Phase1 + p.Phase2 }

// AttachCtx simulates one debugger startup against the job and returns
// its phase times. Calling it twice against the same Config.FS gives
// the cold then warm rows of Table IV, because the first attach leaves
// every DSO in the nodes' disk buffer caches. The per-image ingest
// loop of phase 1 and the per-module event loop of phase 2 probe ctx,
// so canceling it abandons the attach within one image's work and
// returns an error wrapping api.ErrCanceled.
func AttachCtx(ctx context.Context, cfg Config) (Phases, error) {
	var out Phases
	if cfg.Workload == nil {
		return out, fmt.Errorf("toolsim: no workload")
	}
	if cfg.Cluster.Nodes == 0 {
		cfg.Cluster = cluster.Zeus()
	}
	if cfg.Params == (Params{}) {
		cfg.Params = DefaultParams()
	}
	place, err := cluster.Place(cfg.Cluster, cfg.Tasks)
	if err != nil {
		return out, err
	}
	if cfg.FS == nil {
		return out, fmt.Errorf("toolsim: no filesystem (share one across cold/warm runs)")
	}
	w := cfg.Workload
	p := cfg.Params
	nodes := place.NodesUsed()

	// Make sure every DSO exists on the filesystem.
	images := append(w.AllImages(), w.Exe)
	for _, img := range images {
		if _, err := cfg.FS.Stat(img.Path); err != nil {
			cfg.FS.Create(img.Path, img.FileSize())
		}
	}

	// --- Phase 1: attach, ingest symbols, update link maps. ---
	// Symbol+debug ingest: every node's debug server reads each DSO's
	// symbol-bearing sections. Nodes proceed in parallel against the
	// shared NFS server; the phase ends when the slowest node finishes.
	var worstNode float64
	var parseBytes float64
	for _, img := range images {
		if err := api.Checkpoint(ctx); err != nil {
			return out, fmt.Errorf("toolsim: phase 1: %w", err)
		}
		symBytes := img.Layout.SymTab.Size + img.Layout.StrTab.Size +
			img.Layout.Hash.Size + img.Layout.Debug.Size
		parseBytes += float64(symBytes)
		var worstThis float64
		for n := 0; n < nodes; n++ {
			secs, _, err := cfg.FS.ReadBytes(n, img.Path, img.FileSize(), nodes)
			if err != nil {
				return out, err
			}
			secs *= p.ScatterFactor // seek-bound small-block reads
			if secs > worstThis {
				worstThis = secs
			}
		}
		worstNode += worstThis
	}
	parse := parseBytes * complexity(w) / p.ParseBandwidth
	if cfg.HeterogeneousLinkMaps {
		// Per-task re-parse: no sharing across heterogeneous link maps.
		parse *= float64(cfg.Tasks)
	}
	attachEvents := float64(len(images)) * float64(cfg.Tasks) *
		(p.AttachEvent + float64(p.Breakpoints)*p.ReinsertTime)
	out.Phase1 = p.LaunchOverhead + worstNode + parse + attachEvents

	// --- Phase 2: dynamic load events from the Python imports. ---
	// Each module import produces one load event per task; files are
	// already cached from phase 1, so this phase is event-bound — which
	// is why Table IV's phase 2 is nearly identical cold vs warm.
	nEvents := float64(len(w.Modules)) * float64(cfg.Tasks)
	out.Phase2 = nEvents * (p.LoadEvent + float64(p.Breakpoints)*p.ReinsertTime)
	var reopen float64
	for _, img := range w.Modules {
		if err := api.Checkpoint(ctx); err != nil {
			return out, fmt.Errorf("toolsim: phase 2: %w", err)
		}
		secs, _, err := cfg.FS.ReadBytes(0, img.Path, img.MappedSize(), nodes)
		if err != nil {
			return out, err
		}
		reopen += secs
	}
	out.Phase2 += reopen
	return out, nil
}

func complexity(w *pygen.Workload) float64 {
	if w.Config.DebugComplexity > 0 {
		return w.Config.DebugComplexity
	}
	return 1
}
