package runner

import (
	"encoding/json"
	"fmt"
	"strconv"
	"sync"

	"repro/internal/api"
	"repro/internal/castore"
)

// Cache stores cell results keyed by content: experiment name +
// canonical config + derived seed. Implementations must be safe for
// concurrent use by pool workers.
type Cache interface {
	Get(key string) (Metrics, bool)
	Put(key string, m Metrics)
}

// cacheSchema invalidates all persisted entries when the cached
// Metrics layout or cell semantics change. Bump it alongside such
// changes.
const cacheSchema = "pynamic-cache-v1"

// CacheKey builds the content key for one cell from the experiment
// name, the canonicalized grid point, and the derived seed (plus the
// schema version), through the system-wide api.ContentHash — the same
// function the Engine's workload cache and Spec.Hash use, so a
// spec-driven matrix reaches exactly the entries a typed RunMatrixCtx
// call wrote. Changing any component reaches a fresh entry; the key
// cannot see changes to the simulator code or model constants
// themselves, so clear the cache directory (`make clean`) after code
// changes that alter results.
func CacheKey(experiment, canonical string, seed uint64) string {
	return api.ContentHash(cacheSchema, experiment, canonical, strconv.FormatUint(seed, 10))
}

// MemCache is an in-memory cache.
type MemCache struct {
	mu sync.RWMutex
	m  map[string]Metrics
}

// NewMemCache returns an empty in-memory cache.
func NewMemCache() *MemCache {
	return &MemCache{m: map[string]Metrics{}}
}

// Get returns an independent copy of the cached metrics for key, if
// present — callers may mutate the result without corrupting the
// cache.
func (c *MemCache) Get(key string) (Metrics, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	m, ok := c.m[key]
	return m.Clone(), ok
}

// Put stores a copy of the metrics under key.
func (c *MemCache) Put(key string, m Metrics) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.m[key] = m.Clone()
}

// DiskCache persists results through the shared content-addressed
// store (internal/castore) under the cacheSchema label — the same
// append-only, CRC-checked persistence discipline the Engine's
// workload and spec-result tiers use, so one cache directory can host
// all three. An in-memory layer fronts the store so repeated Gets
// within a process never re-read the disk.
type DiskCache struct {
	store *castore.Disk
	mem   *MemCache
}

// NewDiskCache opens (creating if needed) a disk cache rooted at dir.
// The directory may be shared with an Engine's WithCacheDir store.
func NewDiskCache(dir string) (*DiskCache, error) {
	st, err := castore.Open(dir, castore.Options{})
	if err != nil {
		return nil, fmt.Errorf("runner: open cache: %w", err)
	}
	return &DiskCache{store: st, mem: NewMemCache()}, nil
}

// Get returns the cached metrics for key, consulting memory first and
// then the store. Corrupt or unreadable entries are treated as misses
// (the store counts and discards them).
func (c *DiskCache) Get(key string) (Metrics, bool) {
	if m, ok := c.mem.Get(key); ok {
		return m, true
	}
	data, ok := c.store.Get(cacheSchema, key)
	if !ok {
		return nil, false
	}
	var m Metrics
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, false
	}
	c.mem.Put(key, m)
	return m, true
}

// Put stores metrics under key in memory and in the store. Store
// errors are ignored — the memory layer still serves the result for
// this process.
func (c *DiskCache) Put(key string, m Metrics) {
	c.mem.Put(key, m)
	data, err := json.Marshal(m)
	if err != nil {
		return
	}
	_ = c.store.Put(cacheSchema, key, data)
}

// Stats reports the underlying store's counters.
func (c *DiskCache) Stats() castore.Stats { return c.store.Stats() }
