package pynamic

import (
	"context"
	"encoding/json"
	"fmt"

	"repro/internal/cluster"
	"repro/internal/fsim"
	"repro/internal/scenario"
	"repro/internal/simtime"
)

// SpecExpansion is a validated, fully resolved Spec: the typed
// configurations the Engine will execute, plus the canonical hash.
// Exactly one of Run/Job/Tool/Matrix (or Experiment+Grid for the
// scenario kind) is populated, matching Kind. Workload pointers inside
// Run/Job/Tool are left nil — RunSpecCtx fills them from the workload
// cache; use Gen with GenerateCtx to materialize the workload yourself.
type SpecExpansion struct {
	// Kind is the spec's execution path.
	Kind string
	// Hash is the spec's canonical content hash (see Spec.Hash).
	Hash string
	// Gen is the resolved generator configuration (run/job/tool kinds).
	Gen *Config
	// Run is the resolved driver configuration (run kind; Workload nil).
	Run *RunConfig
	// Job is the resolved job configuration (job kind; Workload nil).
	Job *JobConfig
	// Tool is the resolved tool-startup configuration (tool kind;
	// Workload and FS nil — RunSpecCtx builds the shared filesystem for
	// the cold/warm pair).
	Tool *ToolStartupConfig
	// Matrix is the resolved matrix (matrix kind), with every grid
	// explicit.
	Matrix *MatrixSpec
	// Experiment is the registry name of the resolved scenario
	// (scenario kind), e.g. "scenario:startup-storm".
	Experiment string
	// Grid is the resolved scenario grid (scenario kind): the full
	// default grid, or the single overlaid point when the spec
	// overrode knobs.
	Grid []Params
	// Repeats is the resolved per-point repeat count (scenario kind).
	Repeats int
	// Seed is the resolved base seed (matrix/scenario kinds) or
	// workload seed (run/job/tool kinds).
	Seed uint64
	// Workers is the execution-parallelism hint carried from the spec
	// (never part of the hash).
	Workers int
}

// ExpandSpec validates and resolves a Spec against this Engine without
// running it: the dry-run entry point. Validation failures are
// *FieldError values wrapping ErrBadConfig.
//
// Engine default policies are NOT baked into the expansion, so a
// spec's hash is engine-independent. Two of them (WithBackend,
// WithCluster) still apply at execution exactly as for typed calls:
// the expansion's zero backend/cluster values receive the engine
// defaults inside RunCtx/RunJobCtx. WithSeed never applies to spec
// runs: a spec resolves seed 0 to its workload profile's default at
// canonicalization, because a document whose meaning depended on
// engine state could not be reproduced — or deduplicated by hash —
// from the document alone.
func (e *Engine) ExpandSpec(s Spec) (*SpecExpansion, error) {
	const op = "ExpandSpec"
	n, err := s.Normalize()
	if err != nil {
		return nil, wrapErr(op, "spec", err)
	}
	hash, err := hashNormalized(n)
	if err != nil {
		return nil, wrapErr(op, "spec", err)
	}
	exp := &SpecExpansion{Kind: n.Kind, Hash: hash, Seed: n.Seed, Workers: s.Workers}

	switch n.Kind {
	case SpecRun, SpecJob, SpecTool:
		gen, err := resolveWorkload(n.Workload, n.Seed)
		if err != nil {
			return nil, wrapErr(op, "spec", err)
		}
		exp.Gen = &gen
		mode, _ := ParseBuildMode(n.Build.Mode)
		backend := Analytic
		if n.Build.Backend == "detailed" {
			backend = Detailed
		}
		var clust ClusterConfig
		if n.Build.Cluster != nil {
			clust = n.Build.Cluster.clusterConfig()
		}
		top := n.Topology
		switch n.Kind {
		case SpecRun:
			exp.Run = &RunConfig{
				Mode:       mode,
				Backend:    backend,
				Cluster:    clust,
				NTasks:     top.Tasks,
				RunMPITest: top.MPITest,
				Coverage:   top.Coverage,
				ASLR:       top.ASLR,
				Seed:       gen.Seed,
			}
		case SpecJob:
			placement, _ := ParsePlacement(top.Placement)
			exp.Job = &JobConfig{
				Mode:             mode,
				Backend:          backend,
				Cluster:          clust,
				NTasks:           top.Tasks,
				Ranks:            top.Ranks,
				Placement:        placement,
				RunMPITest:       top.MPITest,
				Coverage:         top.Coverage,
				ASLR:             top.ASLR,
				RankSkew:         top.RankSkew,
				StragglerFrac:    top.StragglerFrac,
				StragglerIOScale: top.StragglerIOScale,
				WarmNodeFrac:     top.WarmNodeFrac,
				Workers:          s.Workers,
				Seed:             gen.Seed,
			}
		case SpecTool:
			exp.Tool = &ToolStartupConfig{
				Tasks:                 top.Tasks,
				Cluster:               clust,
				HeterogeneousLinkMaps: top.HeteroLinkMaps,
			}
		}
	case SpecScenario:
		sc := n.Scenario
		info, _ := scenarioByName(sc.Name)
		exp.Experiment = scenario.Prefix + sc.Name
		exp.Repeats = sc.Repeats
		grid, err := resolveScenarioGrid(info, sc.Knobs)
		if err != nil {
			return nil, wrapErr(op, "spec", err)
		}
		exp.Grid = grid
	case SpecMatrix:
		exp.Matrix = &MatrixSpec{
			Experiments: n.Matrix.Experiments,
			Grids:       n.Matrix.Grids,
			Repeats:     n.Matrix.Repeats,
			Seed:        n.Seed,
			Workers:     s.Workers,
		}
	}
	return exp, nil
}

// ToolColdWarm is the tool kind's result: one cold and one warm
// debugger attach over a shared filesystem (a Table IV column pair).
type ToolColdWarm struct {
	// Tasks and Nodes describe the attached job's placement.
	Tasks int `json:"tasks"`
	Nodes int `json:"nodes"`
	// Cold is the first attach (empty buffer caches); Warm the second.
	Cold ToolStartupPhases `json:"cold"`
	Warm ToolStartupPhases `json:"warm"`
}

// Render formats the cold/warm pair as the CLIs print it — one shared
// rendering, so cmd/pynamic and cmd/pynamic-tool cannot drift.
func (r *ToolColdWarm) Render() string {
	return fmt.Sprintf("tool startup at %d tasks (%d nodes):\n"+
		"  cold: 1st phase %s, 2nd phase %s, total %s\n"+
		"  warm: 1st phase %s, 2nd phase %s, total %s\n"+
		"  cold/warm: %.2fx\n",
		r.Tasks, r.Nodes,
		simtime.MinSec(r.Cold.Phase1), simtime.MinSec(r.Cold.Phase2), simtime.MinSec(r.Cold.Total()),
		simtime.MinSec(r.Warm.Phase1), simtime.MinSec(r.Warm.Phase2), simtime.MinSec(r.Warm.Total()),
		r.Cold.Total()/r.Warm.Total())
}

// SpecResult is the outcome of RunSpecCtx: the canonical hash, the
// kind that ran, and the kind's result in its field. The bytes of the
// populated result field are identical to the corresponding typed
// Engine call's (RunCtx, RunJobCtx, RunExperimentCtx, RunMatrixCtx) —
// the spec layer adds identity, never drift.
type SpecResult struct {
	Kind string `json:"kind"`
	Hash string `json:"hash"`
	// Metrics is the run kind's driver report.
	Metrics *Metrics `json:"metrics,omitempty"`
	// Job is the job kind's per-rank result.
	Job *JobResult `json:"job,omitempty"`
	// Experiment is the scenario kind's cells and aggregates.
	Experiment *ExperimentResult `json:"experiment,omitempty"`
	// Matrix is the matrix kind's result. Its host-time Elapsed field
	// is zeroed: a canonical result must not change between identical
	// runs.
	Matrix *MatrixResult `json:"matrix,omitempty"`
	// Tool is the tool kind's cold/warm attach pair.
	Tool *ToolColdWarm `json:"tool,omitempty"`
	// FromStore reports that this result was served from the engine's
	// persistent store (WithCacheDir) rather than computed by this
	// call. It is excluded from the JSON encoding so stored and
	// freshly computed results stay byte-identical.
	FromStore bool `json:"-"`
}

// Payload returns the kind-specific inner result (the value of
// whichever field is populated). The serving layer serves it at
// /v1/specs/{hash}/result, so a job's result bytes are the JobResult's
// alone and diff cleanly against a RunJobCtx result.
func (r *SpecResult) Payload() any {
	switch {
	case r.Metrics != nil:
		return r.Metrics
	case r.Job != nil:
		return r.Job
	case r.Experiment != nil:
		return r.Experiment
	case r.Matrix != nil:
		return r.Matrix
	case r.Tool != nil:
		return r.Tool
	}
	return nil
}

// RunSpecCtx executes a Spec end to end: validate and resolve
// (ExpandSpec), then dispatch to the run, job, matrix, scenario, or
// tool path. Workloads come from the engine's content-hash-keyed
// cache, events stream exactly as they do for the corresponding typed
// call, and cancellation behaves identically (an abandoned matrix
// still returns its partial result alongside ErrCanceled).
func (e *Engine) RunSpecCtx(ctx context.Context, s Spec) (*SpecResult, error) {
	exp, err := e.ExpandSpec(s)
	if err != nil {
		return nil, err
	}
	if cached := e.LookupSpecResult(exp.Hash); cached != nil {
		// Served from the persistent store: nothing ran, so the typed
		// operation counters (and countSpec) deliberately do not move.
		return cached, nil
	}
	res := &SpecResult{Kind: exp.Kind, Hash: exp.Hash}
	switch exp.Kind {
	case SpecRun:
		w, err := e.GenerateCtx(ctx, *exp.Gen)
		if err != nil {
			return nil, err
		}
		rc := *exp.Run
		rc.Workload = w
		m, err := e.RunCtx(ctx, rc)
		if err != nil {
			return nil, err
		}
		res.Metrics = m
	case SpecJob:
		w, err := e.GenerateCtx(ctx, *exp.Gen)
		if err != nil {
			return nil, err
		}
		jc := *exp.Job
		jc.Workload = w
		jr, err := e.RunJobCtx(ctx, jc)
		if err != nil {
			return nil, err
		}
		res.Job = jr
	case SpecScenario:
		er, err := e.RunExperimentCtx(ctx, exp.Experiment, ExperimentSpec{
			Grid:    exp.Grid,
			Repeats: exp.Repeats,
			Seed:    exp.Seed,
			Workers: exp.Workers,
		})
		if err != nil {
			return res, err
		}
		res.Experiment = er
	case SpecMatrix:
		mr, err := e.RunMatrixCtx(ctx, *exp.Matrix)
		if mr != nil {
			mr.Elapsed = 0 // host wall time is not part of the canonical result
			res.Matrix = mr
		}
		if err != nil {
			return res, err
		}
	case SpecTool:
		tr, err := e.runToolSpec(ctx, exp)
		if err != nil {
			return nil, err
		}
		res.Tool = tr
	}
	e.stats.countSpec()
	e.persistSpecResult(res)
	return res, nil
}

// specResultSchema labels persisted spec results in the content store.
// The key is the spec's canonical hash, so the entry a restarted or
// sibling process finds is exactly the one an identical document would
// recompute. Bump this label when SpecResult's canonical encoding
// changes; old entries then simply stop being addressed.
const specResultSchema = "pynamic-specresult-v1"

// LookupSpecResult returns the persisted result for a spec hash, or
// nil when the engine has no store (WithCacheDir unset), the hash is
// unknown, or the stored bytes do not decode to a plausible result.
// A non-nil result has FromStore set and counts one store spec hit;
// nothing is executed. The serving layer uses this to answer a
// resubmitted spec across process restarts (dedup:"store").
func (e *Engine) LookupSpecResult(hash string) *SpecResult {
	if e.store == nil {
		return nil
	}
	data, ok := e.store.Get(specResultSchema, hash)
	if !ok {
		return nil
	}
	var res SpecResult
	if err := json.Unmarshal(data, &res); err != nil || res.Hash != hash || res.Payload() == nil {
		// The store's own integrity checks passed but the payload is
		// not a usable result (e.g. written by a future field layout
		// under the same schema label). Treat as absent; the caller
		// recomputes and overwrites.
		return nil
	}
	res.FromStore = true
	e.stats.countStoreSpecHit()
	return &res
}

// persistSpecResult writes a completed spec result through to the
// persistent store, best effort: persistence failures never fail the
// run that produced the result.
func (e *Engine) persistSpecResult(res *SpecResult) {
	if e.store == nil {
		return
	}
	if data, err := json.Marshal(res); err == nil {
		_ = e.store.Put(specResultSchema, res.Hash, data)
	}
}

// runToolSpec runs the tool kind: generate the workload, place the
// job, and attach twice over one shared filesystem for the cold/warm
// pair.
func (e *Engine) runToolSpec(ctx context.Context, exp *SpecExpansion) (*ToolColdWarm, error) {
	const op = "RunSpec"
	w, err := e.GenerateCtx(ctx, *exp.Gen)
	if err != nil {
		return nil, err
	}
	tc := *exp.Tool
	tc.Workload = w
	cl := tc.Cluster
	if cl.Nodes == 0 {
		if e.clust.Nodes != 0 {
			cl = e.clust
		} else {
			cl = ZeusCluster()
		}
	}
	place, err := cluster.Place(cl, tc.Tasks)
	if err != nil {
		return nil, wrapErr(op, "place", badConfig(err.Error()))
	}
	fs, err := fsim.New(fsim.Defaults(), place.NodesUsed())
	if err != nil {
		return nil, wrapErr(op, "attach", err)
	}
	tc.FS = fs
	cold, err := e.ToolAttachCtx(ctx, tc)
	if err != nil {
		return nil, err
	}
	warm, err := e.ToolAttachCtx(ctx, tc)
	if err != nil {
		return nil, err
	}
	return &ToolColdWarm{
		Tasks: tc.Tasks,
		Nodes: place.NodesUsed(),
		Cold:  cold,
		Warm:  warm,
	}, nil
}
