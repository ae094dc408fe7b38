package fsim

import (
	"errors"
	"fmt"
	"testing"
	"testing/quick"
)

func newFS(t *testing.T, nodes int) *FS {
	t.Helper()
	fs, err := New(Defaults(), nodes)
	if err != nil {
		t.Fatal(err)
	}
	return fs
}

func TestConfigValidate(t *testing.T) {
	if err := Defaults().Validate(); err != nil {
		t.Fatalf("Defaults invalid: %v", err)
	}
	bad := Defaults()
	bad.NFSBandwidth = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero bandwidth accepted")
	}
	bad2 := Defaults()
	bad2.NFSConcurrency = 0
	if err := bad2.Validate(); err == nil {
		t.Error("zero concurrency accepted")
	}
	bad3 := Defaults()
	bad3.NFSLatency = -1
	if err := bad3.Validate(); err == nil {
		t.Error("negative latency accepted")
	}
	if _, err := New(Defaults(), 0); err == nil {
		t.Error("zero nodes accepted")
	}
}

func TestColdReadThenWarmRead(t *testing.T) {
	fs := newFS(t, 2)
	fs.Create("/lib/libm.so", 10<<20)
	cold, hit, err := fs.Read(0, "/lib/libm.so", 1)
	if err != nil || hit {
		t.Fatalf("cold read: hit=%v err=%v", hit, err)
	}
	warm, hit, err := fs.Read(0, "/lib/libm.so", 1)
	if err != nil || !hit {
		t.Fatalf("warm read: hit=%v err=%v", hit, err)
	}
	if warm >= cold {
		t.Fatalf("warm (%v) not faster than cold (%v)", warm, cold)
	}
	// The paper's Table IV shows roughly 2x or better end-to-end; the
	// raw I/O ratio should be much larger.
	if cold/warm < 2 {
		t.Fatalf("cold/warm ratio %v too small", cold/warm)
	}
	// Caches are per node: node 1 is still cold.
	_, hit, _ = fs.Read(1, "/lib/libm.so", 1)
	if hit {
		t.Fatal("node 1 unexpectedly warm")
	}
}

func TestMissingFile(t *testing.T) {
	fs := newFS(t, 1)
	_, _, err := fs.Read(0, "/nope", 1)
	var pe *PathError
	if !errors.As(err, &pe) {
		t.Fatalf("want PathError, got %v", err)
	}
	if pe.Path != "/nope" || pe.Op != "read" {
		t.Fatalf("PathError fields: %+v", pe)
	}
	if _, err := fs.Stat("/nope"); err == nil {
		t.Fatal("Stat on missing file succeeded")
	}
}

func TestStatAndPaths(t *testing.T) {
	fs := newFS(t, 1)
	fs.Create("/b", 2)
	fs.Create("/a", 1)
	size, err := fs.Stat("/a")
	if err != nil || size != 1 {
		t.Fatalf("Stat: %d, %v", size, err)
	}
	if got := fs.Paths(); len(got) != 2 || got[0] != "/a" || got[1] != "/b" {
		t.Fatalf("Paths = %v", got)
	}
	if fs.NumFiles() != 2 {
		t.Fatalf("NumFiles = %d", fs.NumFiles())
	}
}

func TestContentionSlowsReads(t *testing.T) {
	fs := newFS(t, 1)
	fs.Create("/big", 100<<20)
	alone, _, _ := fs.Read(0, "/big", 1)
	fs.DropCaches()
	crowded, _, _ := fs.Read(0, "/big", 512)
	if crowded <= alone {
		t.Fatalf("512-client read (%v) not slower than solo (%v)", crowded, alone)
	}
	// Bandwidth share model: 512 clients ≈ 512x the transfer time.
	if crowded < alone*100 {
		t.Fatalf("contention too weak: %v vs %v", crowded, alone)
	}
}

func TestReadBytesPartial(t *testing.T) {
	fs := newFS(t, 1)
	fs.Create("/f", 1000)
	secs, hit, err := fs.ReadBytes(0, "/f", 100, 1)
	if err != nil || hit {
		t.Fatalf("partial read: %v %v", hit, err)
	}
	if secs <= 0 {
		t.Fatal("zero elapsed time")
	}
	// Partial read cached only 100 bytes; asking for more misses again.
	_, hit, _ = fs.ReadBytes(0, "/f", 100, 1)
	if !hit {
		t.Fatal("re-read of cached prefix missed")
	}
	_, hit, _ = fs.Read(0, "/f", 1)
	if hit {
		t.Fatal("full read served from partial cache")
	}
	// After the full read, a full re-read hits.
	_, hit, _ = fs.Read(0, "/f", 1)
	if !hit {
		t.Fatal("full re-read missed")
	}
}

func TestLRUEviction(t *testing.T) {
	cfg := Defaults()
	cfg.NodeCacheBytes = 100
	fs, err := New(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	fs.Create("/a", 60)
	fs.Create("/b", 60)
	fs.Read(0, "/a", 1)
	fs.Read(0, "/b", 1) // evicts /a
	if _, hit, _ := fs.Read(0, "/b", 1); !hit {
		t.Fatal("/b should be cached")
	}
	if _, hit, _ := fs.Read(0, "/a", 1); hit {
		t.Fatal("/a should have been evicted")
	}
	if fs.CachedBytes(0) > 100 {
		t.Fatalf("cache over capacity: %d", fs.CachedBytes(0))
	}
}

func TestLRURecencyOrder(t *testing.T) {
	cfg := Defaults()
	cfg.NodeCacheBytes = 150
	fs, _ := New(cfg, 1)
	fs.Create("/a", 50)
	fs.Create("/b", 50)
	fs.Create("/c", 50)
	fs.Read(0, "/a", 1)
	fs.Read(0, "/b", 1)
	fs.Read(0, "/a", 1) // refresh /a
	fs.Read(0, "/c", 1) // fits: a, b, c all cached (150)
	fs.Create("/d", 50)
	fs.Read(0, "/d", 1) // evicts /b (LRU), not /a
	if _, hit, _ := fs.Read(0, "/a", 1); !hit {
		t.Fatal("/a evicted despite recency")
	}
	if _, hit, _ := fs.Read(0, "/b", 1); hit {
		t.Fatal("/b not evicted")
	}
}

func TestFileLargerThanCache(t *testing.T) {
	cfg := Defaults()
	cfg.NodeCacheBytes = 100
	fs, _ := New(cfg, 1)
	fs.Create("/huge", 1000)
	fs.Read(0, "/huge", 1)
	if _, hit, _ := fs.Read(0, "/huge", 1); hit {
		t.Fatal("file larger than cache reported warm")
	}
	if fs.CachedBytes(0) != 0 {
		t.Fatalf("oversized file left %d bytes cached", fs.CachedBytes(0))
	}
}

func TestDropCaches(t *testing.T) {
	fs := newFS(t, 2)
	fs.Create("/x", 1000)
	fs.Read(0, "/x", 1)
	fs.Read(1, "/x", 1)
	fs.DropCaches()
	if _, hit, _ := fs.Read(0, "/x", 1); hit {
		t.Fatal("cache survived drop")
	}
}

func TestStats(t *testing.T) {
	fs := newFS(t, 1)
	fs.Create("/x", 500)
	fs.Read(0, "/x", 1)
	fs.Read(0, "/x", 1)
	s := fs.Stats()
	if s.NFSReads != 1 || s.NFSBytes != 500 {
		t.Fatalf("NFS stats: %+v", s)
	}
	if s.CacheHits != 1 || s.HitBytes != 500 {
		t.Fatalf("hit stats: %+v", s)
	}
}

func TestCollectiveReadWarmsAllNodes(t *testing.T) {
	fs := newFS(t, 8)
	fs.Create("/lib/libmod.so", 5<<20)
	secs, err := fs.CollectiveRead([]int{0, 1, 2, 3, 4, 5, 6, 7}, "/lib/libmod.so")
	if err != nil {
		t.Fatal(err)
	}
	if secs <= 0 {
		t.Fatal("zero collective time")
	}
	for n := 0; n < 8; n++ {
		if _, hit, _ := fs.Read(n, "/lib/libmod.so", 1); !hit {
			t.Fatalf("node %d not warmed by collective read", n)
		}
	}
	// Only one NFS read happened.
	if fs.Stats().NFSReads != 1 {
		t.Fatalf("collective did %d NFS reads", fs.Stats().NFSReads)
	}
}

func TestCollectiveBeatsIndependentAtScale(t *testing.T) {
	// The §V motivation: at high node counts, one NFS fetch + broadcast
	// beats N independent NFS reads.
	const nodes = 256
	fileSize := uint64(4 << 20)

	indep, _ := New(Defaults(), nodes)
	indep.Create("/lib/m.so", fileSize)
	var worst float64
	for n := 0; n < nodes; n++ {
		s, _, err := indep.Read(n, "/lib/m.so", nodes)
		if err != nil {
			t.Fatal(err)
		}
		if s > worst {
			worst = s
		}
	}

	coll, _ := New(Defaults(), nodes)
	coll.Create("/lib/m.so", fileSize)
	ids := make([]int, nodes)
	for i := range ids {
		ids[i] = i
	}
	collSecs, err := coll.CollectiveRead(ids, "/lib/m.so")
	if err != nil {
		t.Fatal(err)
	}
	if collSecs >= worst {
		t.Fatalf("collective (%v) not faster than independent (%v) at %d nodes",
			collSecs, worst, nodes)
	}
}

func TestCollectiveReadErrors(t *testing.T) {
	fs := newFS(t, 2)
	if _, err := fs.CollectiveRead(nil, "/x"); err == nil {
		t.Error("empty node list accepted")
	}
	if _, err := fs.CollectiveRead([]int{0}, "/missing"); err == nil {
		t.Error("missing file accepted")
	}
}

func TestNodeOutOfRange(t *testing.T) {
	fs := newFS(t, 1)
	fs.Create("/x", 10)
	if _, _, err := fs.Read(5, "/x", 1); err == nil {
		t.Error("out-of-range node accepted")
	}
	if fs.CachedBytes(5) != 0 {
		t.Error("out-of-range CachedBytes nonzero")
	}
}

func TestCacheNeverExceedsCapacity(t *testing.T) {
	cfg := Defaults()
	cfg.NodeCacheBytes = 10_000
	if err := quick.Check(func(ops []uint16) bool {
		fs, err := New(cfg, 1)
		if err != nil {
			return false
		}
		for i := 0; i < 40; i++ {
			fs.Create(fmt.Sprintf("/f%d", i), uint64(i)*400)
		}
		for _, op := range ops {
			fs.Read(0, fmt.Sprintf("/f%d", int(op)%40), 1)
			if fs.CachedBytes(0) > cfg.NodeCacheBytes {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestPerNodeCacheIsolation is load-bearing for the job engine: once
// ranks read through their *real* node IDs, a read by node A must warm
// only node A's buffer cache, never node B's.
func TestPerNodeCacheIsolation(t *testing.T) {
	fs := newFS(t, 3)
	fs.Create("/stage/libmod.so", 8<<20)
	if _, hit, err := fs.Read(0, "/stage/libmod.so", 1); err != nil || hit {
		t.Fatalf("first read via node 0: hit=%v err=%v", hit, err)
	}
	// Node 0 is warm; nodes 1 and 2 must still be cold.
	if _, hit, _ := fs.Read(0, "/stage/libmod.so", 1); !hit {
		t.Fatal("node 0 not warmed by its own read")
	}
	if _, hit, _ := fs.Read(1, "/stage/libmod.so", 1); hit {
		t.Fatal("node 0's read warmed node 1's cache")
	}
	if _, hit, _ := fs.Read(2, "/stage/libmod.so", 1); hit {
		t.Fatal("reads through nodes 0 and 1 warmed node 2's cache")
	}
	if fs.CachedBytes(0) == 0 || fs.CachedBytes(1) == 0 || fs.CachedBytes(2) == 0 {
		t.Fatal("per-node cache accounting missing")
	}
}

// TestForkIsolatesAndAbsorbMerges covers the job engine's rank-FS
// lifecycle: forks never leak reads into the parent (or each other),
// and Absorb folds cache state and stats back deterministically.
func TestForkIsolatesAndAbsorbMerges(t *testing.T) {
	base := newFS(t, 2)
	base.Create("/stage/a.so", 4<<20)
	base.Create("/stage/b.so", 4<<20)

	f0, f1 := base.Fork(), base.Fork()
	if _, hit, err := f0.Read(0, "/stage/a.so", 1); err != nil || hit {
		t.Fatalf("fork0 cold read: hit=%v err=%v", hit, err)
	}
	if _, hit, _ := f1.Read(0, "/stage/a.so", 1); hit {
		t.Fatal("fork0's read warmed fork1")
	}
	if base.CachedBytes(0) != 0 {
		t.Fatal("fork read mutated parent cache")
	}
	if base.Stats().NFSReads != 0 {
		t.Fatal("fork read mutated parent stats")
	}
	if _, hit, _ := f0.Read(0, "/stage/a.so", 1); !hit {
		t.Fatal("fork did not keep its own cache")
	}

	if err := base.Absorb(f0); err != nil {
		t.Fatal(err)
	}
	if err := base.Absorb(f1); err != nil {
		t.Fatal(err)
	}
	// Post-merge the parent is warm for /stage/a.so on node 0 ...
	if _, hit, _ := base.Read(0, "/stage/a.so", 1); !hit {
		t.Fatal("absorb did not warm parent cache")
	}
	// ... and carries the forks' traffic: 2 cold NFS reads, 1 fork hit,
	// plus the parent's own post-merge hit.
	st := base.Stats()
	if st.NFSReads != 2 || st.CacheHits != 2 {
		t.Fatalf("merged stats = %+v, want 2 NFS reads and 2 hits", st)
	}

	other := newFS(t, 5)
	if err := base.Absorb(other); err == nil {
		t.Fatal("absorb across node counts accepted")
	}
}

// TestForkCachePreservesRecency: cloning must keep LRU order, or forked
// ranks would evict different victims than the parent would have.
func TestForkCachePreservesRecency(t *testing.T) {
	cfg := Defaults()
	cfg.NodeCacheBytes = 10 << 20
	fs, err := New(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		p := fmt.Sprintf("/f%d", i)
		fs.Create(p, 4<<20)
		if _, _, err := fs.Read(0, p, 1); err != nil {
			t.Fatal(err)
		}
	}
	// Cache holds f1, f2 (f0 evicted). Touch f1 so f2 is LRU.
	if _, hit, _ := fs.Read(0, "/f1", 1); !hit {
		t.Fatal("setup: f1 not cached")
	}
	fork := fs.Fork()
	fork.Create("/f3", 4<<20)
	if _, _, err := fork.Read(0, "/f3", 1); err != nil {
		t.Fatal(err)
	}
	// The clone must evict f2 (its LRU), keeping f1 — as the parent
	// would have.
	if _, hit, _ := fork.Read(0, "/f1", 1); !hit {
		t.Fatal("fork evicted the MRU entry: recency order lost in clone")
	}
	if _, hit, _ := fork.Read(0, "/f2", 1); hit {
		t.Fatal("fork kept its LRU entry past capacity")
	}
}

// TestWarmNodesSelective warms only the listed nodes.
func TestWarmNodesSelective(t *testing.T) {
	fs := newFS(t, 3)
	fs.Create("/stage/a.so", 1<<20)
	fs.Create("/stage/b.so", 2<<20)
	if err := fs.WarmNodes(0, 2); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		node int
		warm bool
	}{{0, true}, {1, false}, {2, true}} {
		_, hit, err := fs.Read(tc.node, "/stage/a.so", 1)
		if err != nil {
			t.Fatal(err)
		}
		if hit != tc.warm {
			t.Fatalf("node %d: hit=%v, want %v", tc.node, hit, tc.warm)
		}
	}
	if err := fs.WarmNodes(7); err == nil {
		t.Fatal("out-of-range warm node accepted")
	}
}

// TestNodeIOScale: a degraded node's reads take scale× the healthy
// time, cold and warm, and other nodes are unaffected.
func TestNodeIOScale(t *testing.T) {
	fs := newFS(t, 2)
	fs.Create("/stage/a.so", 8<<20)
	healthyCold, _, err := fs.Read(0, "/stage/a.so", 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.SetNodeIOScale(1, 4); err != nil {
		t.Fatal(err)
	}
	slowCold, _, err := fs.Read(1, "/stage/a.so", 1)
	if err != nil {
		t.Fatal(err)
	}
	if slowCold != 4*healthyCold {
		t.Fatalf("degraded cold read %g, want %g", slowCold, 4*healthyCold)
	}
	healthyWarm, hit, _ := fs.Read(0, "/stage/a.so", 1)
	slowWarm, hit2, _ := fs.Read(1, "/stage/a.so", 1)
	if !hit || !hit2 {
		t.Fatal("warm reads missed")
	}
	if slowWarm != 4*healthyWarm {
		t.Fatalf("degraded warm read %g, want %g", slowWarm, 4*healthyWarm)
	}
	// The setting survives forking.
	fork := fs.Fork()
	forkSlow, _, err := fork.Read(1, "/stage/a.so", 1)
	if err != nil {
		t.Fatal(err)
	}
	if forkSlow != slowWarm {
		t.Fatalf("fork lost I/O scale: %g vs %g", forkSlow, slowWarm)
	}
	if err := fs.SetNodeIOScale(0, 0.5); err == nil {
		t.Fatal("speed-up scale accepted")
	}
	if err := fs.SetNodeIOScale(9, 2); err == nil {
		t.Fatal("out-of-range scale node accepted")
	}
}

// TestSameNodeState: nodes are in the same state only with the same
// I/O scale and the same cached files, sizes and recency order.
func TestSameNodeState(t *testing.T) {
	fs := newFS(t, 5)
	fs.Create("/a", 1<<20)
	fs.Create("/b", 2<<20)
	read := func(node int, paths ...string) {
		for _, p := range paths {
			if _, _, err := fs.Read(node, p, 1); err != nil {
				t.Fatal(err)
			}
		}
	}
	read(0, "/a", "/b")
	read(1, "/a", "/b")
	read(2, "/b", "/a") // same files, other recency order
	if _, _, err := fs.ReadBytes(3, "/a", 1<<10, 1); err != nil {
		t.Fatal(err)
	}
	read(3, "/b") // /a only partly cached
	if err := fs.SetNodeIOScale(4, 2); err != nil {
		t.Fatal(err)
	}
	read(4, "/a", "/b")
	for _, tc := range []struct {
		a, b int
		same bool
	}{
		{0, 0, true}, {0, 1, true}, {1, 0, true},
		{0, 2, false}, {0, 3, false}, {0, 4, false}, {0, 5, false}, {-1, -1, false},
	} {
		if got := fs.SameNodeState(tc.a, tc.b); got != tc.same {
			t.Errorf("SameNodeState(%d, %d) = %v, want %v", tc.a, tc.b, got, tc.same)
		}
	}
	want := []CachedFile{{"/b", 2 << 20}, {"/a", 1 << 20}}
	if got := fs.NodeCache(0); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("NodeCache(0) = %v, want %v (most recent first)", got, want)
	}
	if fs.NodeCache(9) != nil {
		t.Fatal("out-of-range node has a cache")
	}
}

// TestAbsorbAsRelabelsFork: a fork that read on node 0, absorbed as
// node 1's, leaves the parent exactly as absorbing a fork that did the
// same reads on node 1 — when nodes 0 and 1 started in the same state.
func TestAbsorbAsRelabelsFork(t *testing.T) {
	setup := func() *FS {
		fs := newFS(t, 3)
		fs.Create("/a", 1<<20)
		fs.Create("/b", 2<<20)
		if err := fs.WarmNodes(0, 1, 2); err != nil {
			t.Fatal(err)
		}
		return fs
	}
	direct, relabelled := setup(), setup()
	// Both parents first absorb an earlier fork that read on node 2, so
	// the later merges land on caches whose recency already moved.
	for _, fs := range []*FS{direct, relabelled} {
		f := fs.Fork()
		if _, _, err := f.Read(2, "/a", 1); err != nil {
			t.Fatal(err)
		}
		if err := fs.Absorb(f); err != nil {
			t.Fatal(err)
		}
	}
	own := direct.Fork()
	rep := relabelled.Fork()
	for _, p := range []string{"/b", "/a"} {
		if _, _, err := own.Read(1, p, 1); err != nil {
			t.Fatal(err)
		}
		if _, _, err := rep.Read(0, p, 1); err != nil {
			t.Fatal(err)
		}
	}
	if err := direct.Absorb(own); err != nil {
		t.Fatal(err)
	}
	if err := relabelled.AbsorbAs(rep, 0, 1); err != nil {
		t.Fatal(err)
	}
	for n := 0; n < 3; n++ {
		if got, want := fmt.Sprint(relabelled.NodeCache(n)), fmt.Sprint(direct.NodeCache(n)); got != want {
			t.Fatalf("node %d: relabelled absorb %s, direct %s", n, got, want)
		}
	}
	if relabelled.Stats() != direct.Stats() {
		t.Fatalf("stats %+v, want %+v", relabelled.Stats(), direct.Stats())
	}
	if err := relabelled.AbsorbAs(rep, 0, 3); err == nil {
		t.Fatal("absorb onto an out-of-range node accepted")
	}
}
