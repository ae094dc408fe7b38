package runner

import (
	"context"
	"fmt"
	"sync"
	"testing"
)

// Concurrency tests for the result cache, mirroring the discipline of
// granular's concurrency_test.go: hammer the shared structures from
// many goroutines under -race and verify no lost updates, no aliasing,
// and no torn reads.

// hammerCache drives readers and writers over an overlapping key space.
func hammerCache(t *testing.T, c Cache) {
	t.Helper()
	const (
		goroutines = 16
		ops        = 200
		keySpace   = 23 // overlapping keys force read/write contention
	)
	keyOf := func(i int) string {
		return CacheKey("hammer", fmt.Sprintf(`{"k":%d}`, i%keySpace), uint64(i%keySpace))
	}
	valOf := func(i int) Metrics {
		return Metrics{"v": float64(i % keySpace), "w": float64(i%keySpace) * 2}
	}
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < ops; i++ {
				k := g*ops + i
				if (g+i)%2 == 0 {
					c.Put(keyOf(k), valOf(k))
				} else if m, ok := c.Get(keyOf(k)); ok {
					// Every key's value is a pure function of the key,
					// so any Get must observe a complete, matching
					// entry — a mismatch means a torn or misfiled write.
					want := valOf(k)
					if m["v"] != want["v"] || m["w"] != want["w"] {
						t.Errorf("key %d: got %v want %v", k, m, want)
						return
					}
					// Mutating the returned map must never corrupt the
					// cache (Get hands out copies).
					m["v"] = -1
				}
			}
		}(g)
	}
	wg.Wait()

	// After the dust settles every written key must read back intact.
	for i := 0; i < keySpace; i++ {
		if m, ok := c.Get(keyOf(i)); ok {
			if m["v"] != float64(i%keySpace) {
				t.Fatalf("post-hammer key %d corrupted: %v", i, m)
			}
		}
	}
}

func TestMemCacheConcurrentHammer(t *testing.T) {
	hammerCache(t, NewMemCache())
}

func TestDiskCacheConcurrentHammer(t *testing.T) {
	c, err := NewDiskCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	hammerCache(t, c)
}

// TestDiskCacheConcurrentSameKey has every goroutine racing Put and Get
// on ONE key (the append path must never expose a partial record).
func TestDiskCacheConcurrentSameKey(t *testing.T) {
	c, err := NewDiskCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := CacheKey("same", `{"x":1}`, 7)
	want := Metrics{"a": 1, "b": 2, "c": 3}
	var wg sync.WaitGroup
	for g := 0; g < 12; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				c.Put(key, want)
				if m, ok := c.Get(key); ok && (m["a"] != 1 || m["b"] != 2 || m["c"] != 3) {
					t.Errorf("torn read: %v", m)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestRunMatrixSharedCacheAcrossConcurrentMatrices runs several full
// matrices concurrently against one shared cache; later matrices may
// be served entirely from it, and every matrix must still produce the
// reference result.
func TestRunMatrixSharedCacheAcrossConcurrentMatrices(t *testing.T) {
	cache := NewMemCache()
	ref, err := RunMatrixCtx(context.Background(), fakeRegistry(false), MatrixSpec{Repeats: 2, Seed: 5, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	want := mustJSON(t, ref.Experiments)

	var wg sync.WaitGroup
	outs := make([]string, 6)
	errs := make([]error, 6)
	for g := range outs {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			res, err := RunMatrixCtx(context.Background(), fakeRegistry(true), MatrixSpec{
				Repeats: 2, Seed: 5, Workers: 1 + g%4, Cache: cache,
			})
			if err != nil {
				errs[g] = err
				return
			}
			outs[g] = mustJSON(t, res.Experiments)
		}(g)
	}
	wg.Wait()
	for g := range outs {
		if errs[g] != nil {
			t.Fatalf("matrix %d: %v", g, errs[g])
		}
		if outs[g] != want {
			t.Fatalf("matrix %d diverges from cacheless reference", g)
		}
	}
}
