package dynld

// KernelStats reports host-side simulation-kernel efficiency counters:
// how much relocation work went through the batched fast path, how
// often a batch was resolved in parallel, and the slab arenas' memory
// accounting. Unlike Stats, these describe the *kernel's* execution
// (host cost), not the simulated linker's behaviour, so they live
// outside the serialized per-rank metrics and are surfaced separately
// (Engine.Stats, /v1/metrics).
type KernelStats struct {
	// RelocsProcessed counts the relocations this loader processed
	// (the simulated Stats.RelocsProcessed). Summed over the loaders a
	// job actually ran, it is the relocation work the host did.
	RelocsProcessed uint64
	// RelocsResolved counts relocation slots resolved through the
	// batched resolve pass (relocateAll). Zero under NoFastPath.
	RelocsResolved uint64
	// ParallelBatches counts relocation batches whose resolve pass ran
	// on more than one goroutine (RelocWorkers > 1 and the batch was
	// large enough to split).
	ParallelBatches uint64
	// ArenaBytesInUse is the live bytes carved from the loader's slab
	// arenas (LinkEntry scratch, memo tables, batch buffers).
	ArenaBytesInUse uint64
	// ArenaBytesReused is the cumulative bytes served from recycled
	// slabs — allocations the steady state avoided.
	ArenaBytesReused uint64
	// ArenaSlabs is the number of slab allocations ever made.
	ArenaSlabs uint64
}

// Add returns k + o, for aggregating across ranks.
func (k KernelStats) Add(o KernelStats) KernelStats {
	return KernelStats{
		RelocsProcessed:  k.RelocsProcessed + o.RelocsProcessed,
		RelocsResolved:   k.RelocsResolved + o.RelocsResolved,
		ParallelBatches:  k.ParallelBatches + o.ParallelBatches,
		ArenaBytesInUse:  k.ArenaBytesInUse + o.ArenaBytesInUse,
		ArenaBytesReused: k.ArenaBytesReused + o.ArenaBytesReused,
		ArenaSlabs:       k.ArenaSlabs + o.ArenaSlabs,
	}
}

// Kernel returns the loader's kernel efficiency counters.
func (ld *Loader) Kernel() KernelStats {
	a := ld.entryArena.Stats().
		Add(ld.boolArena.Stats()).
		Add(ld.defArena.Stats()).
		Add(ld.i32Arena.Stats()).
		Add(ld.batchDef.Stats()).
		Add(ld.batchOK.Stats()).
		Add(ld.batchIdx.Stats())
	return KernelStats{
		RelocsProcessed:  ld.stats.RelocsProcessed,
		RelocsResolved:   ld.relocsBatched,
		ParallelBatches:  ld.parallelBatches,
		ArenaBytesInUse:  a.BytesInUse,
		ArenaBytesReused: a.BytesReused,
		ArenaSlabs:       a.Slabs,
	}
}
