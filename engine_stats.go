package pynamic

import (
	"sync"

	"repro/internal/dynld"
)

// KernelCounters aggregates the simulation kernel's host-side
// efficiency counters over every completed run and job: how many
// relocations the simulated linkers processed, how many of those were
// resolved through the batched zero-alloc fast path (and how many
// batches ran their resolve pass in parallel), and the kernel's slab
// arena accounting. Like every other EngineStats field the counters
// are cumulative over the engine's lifetime; bytes-in-use sums each
// run's final arena footprint rather than tracking a live gauge.
type KernelCounters struct {
	RelocsProcessed  int64 `json:"relocs_processed"`
	RelocsResolved   int64 `json:"relocs_resolved"`
	ParallelBatches  int64 `json:"parallel_batches"`
	ArenaBytesInUse  int64 `json:"arena_bytes_in_use"`
	ArenaBytesReused int64 `json:"arena_bytes_reused"`
}

// EngineStats is a snapshot of an Engine's lifetime operation counters:
// how many operations of each kind completed successfully, the summed
// simulated seconds per job phase, and the workload-cache counters.
// The serving layer exposes this snapshot (flattened) at /v1/metrics so
// a load harness can compute cache hit ratios and simulated-work totals
// from outside the process; see internal/loadgen.
type EngineStats struct {
	// Generates counts completed GenerateCtx calls (cache hits
	// included; the cache counters below split hit from miss).
	Generates int64 `json:"generates"`
	// Runs, Jobs, Matrices and ToolAttaches count completed RunCtx,
	// RunJobCtx, RunMatrixCtx and ToolAttachCtx calls. Experiment and
	// scenario runs dispatch through the matrix path and are counted
	// under Matrices.
	Runs         int64 `json:"runs"`
	Jobs         int64 `json:"jobs"`
	Matrices     int64 `json:"matrices"`
	ToolAttaches int64 `json:"tool_attaches"`
	// Specs counts completed RunSpecCtx calls (each also increments the
	// counter of the typed path it dispatched to).
	Specs int64 `json:"specs"`
	// PhaseSimSec sums simulated seconds per phase name ("startup",
	// "import", "visit", "mpi") over every completed run and job —
	// simulation work performed, not host wall time.
	PhaseSimSec map[string]float64 `json:"phase_sim_sec"`
	// WorkloadCache is the workload-cache counter snapshot (the same
	// value WorkloadCacheStats returns).
	WorkloadCache WorkloadCacheStats `json:"workload_cache"`
	// Kernel aggregates the simulation kernel's efficiency counters
	// (relocations processed/batch-resolved, arena bytes) over every
	// completed run and job.
	Kernel KernelCounters `json:"kernel"`
	// StoreSpecHits counts RunSpecCtx calls (and LookupSpecResult
	// lookups) answered from the persistent store — specs that ran
	// nothing because an identical document had already been computed,
	// possibly by another process. StoreWorkloadHits counts workload
	// generations rebuilt from a stored manifest instead of a fresh
	// configuration. Both are zero without WithCacheDir.
	StoreSpecHits     int64 `json:"store_spec_hits"`
	StoreWorkloadHits int64 `json:"store_workload_hits"`
	// Store is the persistent store's own counter snapshot (hits,
	// misses, puts, evictions, corruptions across every schema tier);
	// all zero without WithCacheDir.
	Store StoreStats `json:"store"`
}

// Flatten returns the snapshot as a flat name → value map: the one
// catalog of engine counter names, shared by pynamic-serve's
// /v1/metrics and the load harness's in-process target (see README.md
// for the names).
func (s EngineStats) Flatten() map[string]float64 {
	m := map[string]float64{
		"engine_generates":          float64(s.Generates),
		"engine_runs":               float64(s.Runs),
		"engine_jobs":               float64(s.Jobs),
		"engine_matrices":           float64(s.Matrices),
		"engine_tool_attaches":      float64(s.ToolAttaches),
		"engine_specs":              float64(s.Specs),
		"workload_cache_hits":       float64(s.WorkloadCache.Hits),
		"workload_cache_misses":     float64(s.WorkloadCache.Misses),
		"workload_cache_entries":    float64(s.WorkloadCache.Entries),
		"workload_cache_capacity":   float64(s.WorkloadCache.Capacity),
		"store_hits":                float64(s.Store.Hits),
		"store_misses":              float64(s.Store.Misses),
		"store_puts":                float64(s.Store.Puts),
		"store_evictions":           float64(s.Store.Evictions),
		"store_corruptions":         float64(s.Store.Corruptions),
		"store_spec_hits":           float64(s.StoreSpecHits),
		"store_workload_hits":       float64(s.StoreWorkloadHits),
		"kernel_relocs_processed":   float64(s.Kernel.RelocsProcessed),
		"kernel_relocs_resolved":    float64(s.Kernel.RelocsResolved),
		"kernel_parallel_batches":   float64(s.Kernel.ParallelBatches),
		"kernel_arena_bytes_in_use": float64(s.Kernel.ArenaBytesInUse),
		"kernel_arena_bytes_reused": float64(s.Kernel.ArenaBytesReused),
	}
	for phase, sec := range s.PhaseSimSec {
		m["engine_phase_sim_sec_"+phase] = sec
	}
	return m
}

// engineStats is the mutable counter set behind Engine.Stats. One
// mutex covers every field: the counters are touched once per Engine
// operation, never on simulation hot paths.
type engineStats struct {
	// observer, when set, receives each completed operation's per-phase
	// simulated seconds. Written once at engine construction and only
	// read afterwards, so calls need no lock — and are made outside the
	// counter critical section to keep user code off the mutex.
	observer func(phase string, simSec float64)

	mu                sync.Mutex
	generates         int64
	runs              int64
	jobs              int64
	matrices          int64
	toolAttaches      int64
	specs             int64
	storeSpecHits     int64
	storeWorkloadHits int64
	phaseSimSec       map[string]float64
	kernel            KernelCounters
}

func newEngineStats() *engineStats {
	return &engineStats{phaseSimSec: make(map[string]float64)}
}

func (s *engineStats) countGenerate() {
	s.mu.Lock()
	s.generates++
	s.mu.Unlock()
}

func (s *engineStats) countRun(m *Metrics) {
	s.mu.Lock()
	s.runs++
	s.addPhasesLocked(m.StartupSec, m.ImportSec, m.VisitSec, m.MPISec)
	s.addKernelLocked(m.Loader.RelocsProcessed, m.Kernel)
	s.mu.Unlock()
	s.observePhases(m.StartupSec, m.ImportSec, m.VisitSec, m.MPISec)
}

func (s *engineStats) countJob(r *JobResult) {
	s.mu.Lock()
	s.jobs++
	s.addPhasesLocked(r.StartupSec, r.ImportSec, r.VisitSec, r.MPISec)
	var relocs uint64
	for i := range r.Ranks {
		relocs += r.Ranks[i].Loader.RelocsProcessed
	}
	s.addKernelLocked(relocs, r.Kernel)
	s.mu.Unlock()
	s.observePhases(r.StartupSec, r.ImportSec, r.VisitSec, r.MPISec)
}

// observePhases feeds one operation's phase times to the registered
// observer, outside the counter lock.
func (s *engineStats) observePhases(startup, imp, visit, mpi float64) {
	if s.observer == nil {
		return
	}
	s.observer("startup", startup)
	s.observer("import", imp)
	s.observer("visit", visit)
	s.observer("mpi", mpi)
}

func (s *engineStats) countMatrix() {
	s.mu.Lock()
	s.matrices++
	s.mu.Unlock()
}

func (s *engineStats) countToolAttach() {
	s.mu.Lock()
	s.toolAttaches++
	s.mu.Unlock()
}

func (s *engineStats) countSpec() {
	s.mu.Lock()
	s.specs++
	s.mu.Unlock()
}

func (s *engineStats) countStoreSpecHit() {
	s.mu.Lock()
	s.storeSpecHits++
	s.mu.Unlock()
}

func (s *engineStats) countStoreWorkloadHit() {
	s.mu.Lock()
	s.storeWorkloadHits++
	s.mu.Unlock()
}

func (s *engineStats) addKernelLocked(relocs uint64, k dynld.KernelStats) {
	s.kernel.RelocsProcessed += int64(relocs)
	s.kernel.RelocsResolved += int64(k.RelocsResolved)
	s.kernel.ParallelBatches += int64(k.ParallelBatches)
	s.kernel.ArenaBytesInUse += int64(k.ArenaBytesInUse)
	s.kernel.ArenaBytesReused += int64(k.ArenaBytesReused)
}

func (s *engineStats) addPhasesLocked(startup, imp, visit, mpi float64) {
	s.phaseSimSec["startup"] += startup
	s.phaseSimSec["import"] += imp
	s.phaseSimSec["visit"] += visit
	s.phaseSimSec["mpi"] += mpi
}

// Stats returns a snapshot of the engine's operation counters and the
// workload-cache counters. Counters only ever increase over an engine's
// lifetime, so two snapshots bracket the work between them — which is
// exactly how the load harness computes per-cell deltas.
func (e *Engine) Stats() EngineStats {
	s := e.stats
	s.mu.Lock()
	out := EngineStats{
		Generates:         s.generates,
		Runs:              s.runs,
		Jobs:              s.jobs,
		Matrices:          s.matrices,
		ToolAttaches:      s.toolAttaches,
		Specs:             s.specs,
		StoreSpecHits:     s.storeSpecHits,
		StoreWorkloadHits: s.storeWorkloadHits,
		Kernel:            s.kernel,
		PhaseSimSec:       make(map[string]float64, len(s.phaseSimSec)),
	}
	for k, v := range s.phaseSimSec {
		out.PhaseSimSec[k] = v
	}
	s.mu.Unlock()
	out.WorkloadCache = e.cache.stats()
	if e.store != nil {
		out.Store = e.store.Stats()
	}
	return out
}
