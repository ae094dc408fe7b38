package job

import (
	"encoding/json"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/cluster"
	"repro/internal/fsim"
	"repro/internal/xrand"
)

// classCase runs cfg as a cold job and then as a warm job over one
// fresh shared filesystem, and returns both results and the filesystem.
// Between the jobs, each node rereads every file in path order, in
// reverse path order, or not at all (drawn from cfg.Seed): nodes then
// can hold the same files in different recency orders, the one
// difference between node states that no job parameter produces.
func classCase(t *testing.T, cfg Config, noFast bool) (cold, warm *Result, fs *fsim.FS) {
	t.Helper()
	place, err := cluster.PlaceWith(cluster.Zeus(), cfg.NTasks, cfg.Placement)
	if err != nil {
		t.Fatal(err)
	}
	fs, err = fsim.New(fsim.Defaults(), place.NodesUsed())
	if err != nil {
		t.Fatal(err)
	}
	cfg.SharedFS = fs
	cfg.NoFastPath = noFast
	cold = mustRun(t, cfg)
	rng := xrand.New(cfg.Seed)
	paths := fs.Paths()
	for n := 0; n < place.NodesUsed(); n++ {
		order := rng.Intn(3)
		for i := range paths {
			p := paths[i]
			switch order {
			case 0:
				continue
			case 2:
				p = paths[len(paths)-1-i]
			}
			if _, _, err := fs.Read(n, p, 1); err != nil {
				t.Fatal(err)
			}
		}
	}
	cfg.WarmFS = true
	warm = mustRun(t, cfg)
	return cold, warm, fs
}

// collapsed reports whether a job simulated fewer ranks than it
// reports: its kernel processed fewer relocations than its ranks did.
func collapsed(res *Result) bool {
	var relocs uint64
	for _, m := range res.Ranks {
		relocs += m.Loader.RelocsProcessed
	}
	return res.Kernel.RelocsProcessed < relocs
}

// TestRankClassesMatchReference is the proof of rank classes: a class
// key that missed an input a rank reads would be silently wrong. Over
// sampled job sizes, placements, modes and heterogeneity knobs, the
// default path (one representative per class) must give the reference
// path (NoFastPath: every rank simulated in full) byte for byte: the
// same per-rank JSON for a cold job and for the warm job after it, and
// the same shared filesystem afterwards — every node's cache in recency
// order, plus the stats. The JSON catches a wrong metric copy, the
// filesystem a wrong barrier; neither catches both.
func TestRankClassesMatchReference(t *testing.T) {
	w := testWorkload(t)
	rng := xrand.New(0xc1a55)
	fracs := []float64{0, 0.25, 0.5, 0.75}
	ioScales := []float64{1, 2, 4}
	cases, grouped := 120, 0
	for i := 0; i < cases; i++ {
		tasks := 1 + rng.Intn(48)
		cfg := Config{
			Mode:             Mode(rng.Intn(3)),
			Workload:         w,
			NTasks:           tasks,
			Ranks:            rng.Intn(tasks + 1),
			Placement:        cluster.Policy(rng.Intn(2)),
			StragglerFrac:    fracs[rng.Intn(len(fracs))],
			StragglerIOScale: ioScales[rng.Intn(len(ioScales))],
			WarmNodeFrac:     fracs[rng.Intn(len(fracs))],
			Seed:             rng.Uint64(),
		}
		switch rng.Intn(8) { // the seed's three readers
		case 0:
			cfg.ASLR = true
		case 1:
			cfg.Backend = Detailed
		case 2:
			cfg.RankSkew = 0.3
		}
		name := fmt.Sprintf("case %d (tasks=%d ranks=%d %v %v straggler=%g×%g warm=%g aslr=%v backend=%d skew=%g)",
			i, cfg.NTasks, cfg.Ranks, cfg.Placement, cfg.Mode, cfg.StragglerFrac,
			cfg.StragglerIOScale, cfg.WarmNodeFrac, cfg.ASLR, cfg.Backend, cfg.RankSkew)

		cold, warm, fs := classCase(t, cfg, false)
		refCold, refWarm, refFS := classCase(t, cfg, true)
		for _, p := range []struct {
			job      string
			got, ref *Result
		}{{"cold", cold, refCold}, {"warm", warm, refWarm}} {
			got, err := json.Marshal(p.got)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := json.Marshal(p.ref)
			if err != nil {
				t.Fatal(err)
			}
			if string(got) != string(ref) {
				t.Fatalf("%s: %s job result diverges from the reference path", name, p.job)
			}
		}
		for n := 0; n < cold.NodesUsed; n++ {
			if got, ref := fs.NodeCache(n), refFS.NodeCache(n); !reflect.DeepEqual(got, ref) {
				t.Fatalf("%s: node %d cache after the barrier diverges:\ngot %v\nref %v", name, n, got, ref)
			}
		}
		if fs.Stats() != refFS.Stats() {
			t.Fatalf("%s: filesystem stats %+v, reference %+v", name, fs.Stats(), refFS.Stats())
		}
		if collapsed(cold) || collapsed(warm) {
			grouped++
		}
	}
	// The property is vacuous unless classes actually formed.
	if grouped < cases/3 {
		t.Fatalf("only %d of %d cases had a rank class of more than one rank", grouped, cases)
	}
}

// TestKernelCountsRepresentatives: the host kernel counters count work
// done — one representative per rank class, not every rank reported.
func TestKernelCountsRepresentatives(t *testing.T) {
	w := testWorkload(t)
	homog := mustRun(t, Config{Mode: Link, Workload: w, NTasks: 8, Seed: 3})
	if got, want := homog.Kernel.RelocsProcessed, homog.Ranks[0].Loader.RelocsProcessed; got != want {
		t.Fatalf("homogeneous 8-rank job: kernel processed %d relocations, want one rank's %d", got, want)
	}

	// 32 tasks on 4 block-placed nodes, one warm and one straggling:
	// the lowest rank on each distinct node state represents its class.
	mixed := mustRun(t, Config{Mode: Link, Workload: w, NTasks: 32, Seed: 11,
		WarmNodeFrac: 0.25, StragglerFrac: 0.25})
	seen := map[[2]bool]bool{}
	var want uint64
	warmNode := map[int]bool{}
	for _, n := range mixed.WarmNodes {
		warmNode[n] = true
	}
	for _, m := range mixed.Ranks {
		class := [2]bool{warmNode[m.Node], m.StragglerNode}
		if !seen[class] {
			seen[class] = true
			want += m.Loader.RelocsProcessed
		}
	}
	if len(seen) < 2 {
		t.Fatalf("mixed job formed %d classes, want several", len(seen))
	}
	if got := mixed.Kernel.RelocsProcessed; got != want {
		t.Fatalf("%d-class job: kernel processed %d relocations, want %d (one per class)",
			len(seen), got, want)
	}
}
