package runner

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestCacheKey(t *testing.T) {
	base := CacheKey("e", `{"x":1}`, 42)
	if len(base) != 64 {
		t.Fatalf("key %q is not a sha256 hex digest", base)
	}
	for name, other := range map[string]string{
		"experiment": CacheKey("f", `{"x":1}`, 42),
		"config":     CacheKey("e", `{"x":2}`, 42),
		"seed":       CacheKey("e", `{"x":1}`, 43),
	} {
		if other == base {
			t.Fatalf("key insensitive to %s", name)
		}
	}
	// Component boundaries are delimited: shifting bytes between the
	// name and the config must not collide.
	if CacheKey("ab", "c", 1) == CacheKey("a", "bc", 1) {
		t.Fatal("undelimited key components")
	}
}

func TestMemCacheHitMiss(t *testing.T) {
	cache := NewMemCache()
	spec := MatrixSpec{Repeats: 2, Seed: 42, Workers: 4, Cache: cache}
	res1, err := RunMatrixCtx(context.Background(), fakeRegistry(false), spec)
	if err != nil {
		t.Fatal(err)
	}
	if res1.CacheHits != 0 || res1.CacheMisses != res1.Cells() {
		t.Fatalf("first run: hits=%d misses=%d cells=%d",
			res1.CacheHits, res1.CacheMisses, res1.Cells())
	}
	res2, err := RunMatrixCtx(context.Background(), fakeRegistry(false), spec)
	if err != nil {
		t.Fatal(err)
	}
	if res2.CacheMisses != 0 || res2.CacheHits != res2.Cells() {
		t.Fatalf("second run: hits=%d misses=%d cells=%d",
			res2.CacheHits, res2.CacheMisses, res2.Cells())
	}
	if mustJSON(t, res1.Experiments) != mustJSON(t, res2.Experiments) {
		t.Fatal("cache-served results differ from computed results")
	}
	// A different seed reaches none of the cached entries.
	res3, err := RunMatrixCtx(context.Background(), fakeRegistry(false), MatrixSpec{
		Repeats: 2, Seed: 7, Workers: 4, Cache: cache,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res3.CacheHits != 0 {
		t.Fatalf("seed change produced %d cache hits", res3.CacheHits)
	}
}

func TestDiskCachePersistsAcrossInstances(t *testing.T) {
	dir := t.TempDir()
	c1, err := NewDiskCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	res1, err := RunMatrixCtx(context.Background(), fakeRegistry(false), MatrixSpec{
		Repeats: 3, Seed: 42, Workers: 8, Cache: c1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res1.CacheMisses != res1.Cells() {
		t.Fatalf("first run misses = %d of %d", res1.CacheMisses, res1.Cells())
	}

	// A fresh instance over the same directory — as a second process
	// invocation would create — must serve every cell from disk.
	c2, err := NewDiskCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	res2, err := RunMatrixCtx(context.Background(), fakeRegistry(false), MatrixSpec{
		Repeats: 3, Seed: 42, Workers: 1, Cache: c2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res2.CacheHits != res2.Cells() || res2.CacheMisses != 0 {
		t.Fatalf("second run: hits=%d misses=%d cells=%d",
			res2.CacheHits, res2.CacheMisses, res2.Cells())
	}
	if mustJSON(t, res1.Experiments) != mustJSON(t, res2.Experiments) {
		t.Fatal("disk-cache results differ from computed results")
	}
}

func TestDiskCacheCorruptEntryIsMiss(t *testing.T) {
	dir := t.TempDir()
	c, err := NewDiskCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	key := CacheKey("e", "{}", 1)
	c.Put(key, Metrics{"v": 1})
	if _, ok := c.Get(key); !ok {
		t.Fatal("put entry not readable")
	}

	// Entries now live in castore packs: <dir>/pack/<writer>.pack, a
	// header line per record followed by its payload. Flip the last
	// payload byte, which the record's CRC-32 covers.
	packs, err := filepath.Glob(filepath.Join(dir, "pack", "*.pack"))
	if err != nil || len(packs) != 1 {
		t.Fatalf("want one pack in the store, got %v (%v)", packs, err)
	}
	data, err := os.ReadFile(packs[0])
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), key) {
		t.Fatal("the pack holds no record for the key")
	}
	data[len(data)-1] ^= 0x01
	if err := os.WriteFile(packs[0], data, 0o644); err != nil {
		t.Fatal(err)
	}
	fresh, err := NewDiskCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := fresh.Get(key); ok {
		t.Fatal("corrupt entry served as a hit")
	}
	if st := fresh.Stats(); st.Corruptions != 1 {
		t.Fatalf("corruptions = %d, want 1", st.Corruptions)
	}
	// Put left nothing behind but the manifest and the pack.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	if strings.Join(names, " ") != "MANIFEST pack" {
		t.Fatalf("store root holds %v, want [MANIFEST pack]", names)
	}
}
