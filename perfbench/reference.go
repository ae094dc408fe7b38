package main

import (
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	pynamic "repro"
)

// reference is what an op on one spec must return, and the simulated
// work that result records.
type reference struct {
	// result is serve's /v1/specs/{hash}/result body for the spec.
	result []byte
	// funcs is how many functions pygen generates for the workload.
	funcs int
	// work sums the loader and interpreter counters over the job's
	// simulated ranks.
	work jobWork
	// rank0 is rank 0 of the result, which the rank-0 replay must
	// reproduce.
	rank0 pynamic.RankMetrics
}

type jobWork struct {
	relocs, lookups, probes, calls, pltCalls uint64
}

// encodeResult renders a result exactly as serve writes it.
func encodeResult(v any) ([]byte, error) {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// computeReferences runs every spec of p once on an engine of its own
// through the loader's reference path (JobConfig.NoFastPath, which the
// repo's equivalence tests pin byte-identical to the fast path), on as
// many goroutines as there are CPUs.
func computeReferences(ctx context.Context, p *plan) ([]reference, error) {
	eng, err := pynamic.New(pynamic.WithWorkloadCacheSize(0))
	if err != nil {
		return nil, err
	}
	refs := make([]reference, len(p.specs))
	errs := make([]error, len(p.specs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(p.specs) {
					return
				}
				refs[i], errs[i] = referenceOf(ctx, eng, p.specs[i])
			}
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("reference for spec %d: %w", i, err)
		}
	}
	return refs, nil
}

func referenceOf(ctx context.Context, eng *pynamic.Engine, spec pynamic.Spec) (reference, error) {
	exp, err := eng.ExpandSpec(spec)
	if err != nil {
		return reference{}, err
	}
	w, err := eng.GenerateCtx(ctx, *exp.Gen)
	if err != nil {
		return reference{}, err
	}
	jc := *exp.Job
	jc.Workload = w
	jc.NoFastPath = true
	jr, err := eng.RunJobCtx(ctx, jc)
	if err != nil {
		return reference{}, err
	}
	b, err := encodeResult(jr)
	if err != nil {
		return reference{}, err
	}
	ref := reference{result: b, funcs: w.TotalFuncs(), rank0: jr.Ranks[0]}
	for _, r := range jr.Ranks {
		ref.work.relocs += r.Loader.RelocsProcessed
		ref.work.lookups += r.Loader.Lookups
		ref.work.probes += r.Loader.ScopeProbes
		ref.work.calls += r.VM.Calls
		ref.work.pltCalls += r.VM.PLTCalls
	}
	return ref, nil
}
