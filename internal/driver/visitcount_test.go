package driver

import (
	"context"
	"testing"

	"repro/internal/elfimg"
	"repro/internal/pygen"
)

// expectedCalls computes, by independent graph traversal, how many
// function-body executions the visit phase must perform: for each
// module's entry function, every call edge is followed (intra-module
// chains, utility calls, cross-module calls, API calls), so a function
// executes once per *incoming call*, not once globally.
func expectedCalls(w *pygen.Workload) uint64 {
	type key struct {
		img *elfimg.Image
		fi  int
	}
	defs := map[elfimg.SymID]key{}
	for _, img := range append(w.AllImages(), w.Exe) {
		for fi, f := range img.Funcs {
			defs[img.Syms[f.Sym].ID] = key{img, fi}
		}
	}
	// The call graph is a DAG, so memoized subtree sizes are exact.
	memo := map[key]uint64{}
	var count func(k key) uint64
	count = func(k key) uint64 {
		if v, ok := memo[k]; ok {
			return v
		}
		var total uint64 = 1 // this body
		for _, c := range k.img.Funcs[k.fi].Calls {
			switch c.Kind {
			case elfimg.CallIntra:
				total += count(key{k.img, c.Target})
			case elfimg.CallPLT:
				if next, ok := defs[k.img.Relocs[c.Target].Sym]; ok {
					total += count(next)
				}
			}
		}
		memo[k] = total
		return total
	}
	var sum uint64
	for _, m := range w.Modules {
		sum += count(key{m, m.EntryFunc})
	}
	return sum
}

// TestVisitCountMatchesGraph cross-validates the VM's executed-call
// count against the independent traversal, for all three build modes
// (binding policy must not change *what* executes, only its cost).
func TestVisitCountMatchesGraph(t *testing.T) {
	cfg := pygen.LLNLModel().Scaled(30).ScaledFuncs(8)
	w, err := pygen.GenerateCtx(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := expectedCalls(w)
	if want == 0 {
		t.Fatal("expected call count is zero")
	}
	for _, mode := range []BuildMode{Vanilla, Link, LinkBind} {
		m, err := RunCtx(context.Background(), Config{Mode: mode, Workload: w, NTasks: 4})
		if err != nil {
			t.Fatalf("%s: %v", mode, err)
		}
		if m.FuncsVisited != want {
			t.Errorf("%s: visited %d function bodies, graph says %d",
				mode, m.FuncsVisited, want)
		}
	}
}

// TestVisitCountCoverageHalf checks the pruned executions also agree
// with the graph: with coverage c, each entry launches only the first
// ceil(c * chains) chains.
func TestVisitCountCoverageFull(t *testing.T) {
	cfg := pygen.LLNLModel().Scaled(30).ScaledFuncs(8)
	cfg.CrossModuleCalls = false
	w, err := pygen.GenerateCtx(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	full, err := RunCtx(context.Background(), Config{Mode: Vanilla, Workload: w, NTasks: 4, Coverage: 1.0})
	if err != nil {
		t.Fatal(err)
	}
	if want := expectedCalls(w); full.FuncsVisited != want {
		t.Fatalf("full coverage visited %d, want %d", full.FuncsVisited, want)
	}
	quarter, err := RunCtx(context.Background(), Config{Mode: Vanilla, Workload: w, NTasks: 4, Coverage: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	frac := float64(quarter.FuncsVisited) / float64(full.FuncsVisited)
	if frac < 0.15 || frac > 0.40 {
		t.Fatalf("quarter coverage visited %.2f of full", frac)
	}
}
