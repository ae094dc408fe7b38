// Package castore is the content-addressed store behind every cache in
// the system: one persistence discipline for workload manifests, spec
// results, and runner cell metrics, all keyed by api.ContentHash
// digests under short schema labels. A Store maps (schema, key) to an
// immutable byte payload; because keys are content hashes, entries are
// write-once — two writers of the same key are by construction writing
// the same bytes, so the per-key locks in Do exist to avoid duplicated
// work, not to serialize conflicting updates. Two backends implement
// the interface: Mem (process-local, the historical behavior) and Disk
// (CRC-framed records appended to packs, one per live writer, optional gzip,
// and a format manifest so format bumps invalidate cleanly across
// processes).
package castore

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Store is the read/write surface shared by all backends. Schema
// labels partition the keyspace (e.g. "pynamic-workload-v1" vs
// "pynamic-specresult-v1") so one root directory can hold every cache
// tier without key collisions; keys are content-hash digests. Payloads
// are immutable once written: Put for an existing key is a no-op
// overwrite with identical bytes, never an update. Implementations
// must be safe for concurrent use.
type Store interface {
	// Get returns the payload for (schema, key), or false on a miss.
	// Corrupt persisted entries are counted, discarded, and reported
	// as misses — never as errors.
	Get(schema, key string) ([]byte, bool)
	// Put stores data under (schema, key). An error means the entry
	// could not be persisted; callers may treat this as advisory (the
	// computation that produced data has already succeeded).
	Put(schema, key string, data []byte) error
	// Do returns the payload for (schema, key), calling fill to
	// produce and persist it on a miss. Concurrent Do calls for the
	// same (schema, key) serialize on a per-key lock so the fill runs
	// once; the second result reports whether the payload came from
	// the store (true) or from fill (false).
	Do(schema, key string, fill func() ([]byte, error)) ([]byte, bool, error)
	// Stats returns a snapshot of the store's counters.
	Stats() Stats
}

// Stats is a point-in-time snapshot of a Store's counters.
type Stats struct {
	// Hits counts Get/Do calls served from the store.
	Hits int64 `json:"hits"`
	// Misses counts Get/Do calls that found no (valid) entry.
	Misses int64 `json:"misses"`
	// Puts counts successfully persisted entries.
	Puts int64 `json:"puts"`
	// Corruptions counts persisted records that failed validation and
	// were discarded: a record whose payload fails its CRC or does not
	// decode, counted by the Get that reaches it (which also counts a
	// miss), and a pack whose next bytes cannot be framed as a record,
	// counted once by each store that reads the pack.
	Corruptions int64 `json:"corruptions"`
}

// counters is the shared atomic backing for Stats snapshots.
type counters struct {
	hits, misses, puts, corruptions atomic.Int64
}

func (c *counters) snapshot() Stats {
	return Stats{
		Hits:        c.hits.Load(),
		Misses:      c.misses.Load(),
		Puts:        c.puts.Load(),
		Corruptions: c.corruptions.Load(),
	}
}

// maxNameLen bounds a schema label or key, and so a record header's
// length: a reader that finds no newline within the longest possible
// header knows the bytes cannot be framed.
const maxNameLen = 255

// validName reports whether s is usable as a schema label or key:
// non-empty, at most maxNameLen bytes, and restricted to
// [A-Za-z0-9._-] with no leading dot, so a name never contains the
// space that separates header fields and every name is one
// well-behaved path component, distinct from dot-prefixed neighbours
// such as the job store's directory.
func validName(s string) bool {
	if s == "" || len(s) > maxNameLen || s[0] == '.' || s == manifestName {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9':
		case c == '.' || c == '_' || c == '-':
		default:
			return false
		}
	}
	return true
}

func checkNames(schema, key string) error {
	if !validName(schema) {
		return fmt.Errorf("castore: invalid schema label %q", schema)
	}
	if !validName(key) {
		return fmt.Errorf("castore: invalid key %q", key)
	}
	return nil
}

// flight hands out per-key locks with reference counting, so
// concurrent Do calls for the same key serialize (the fill runs once)
// while distinct keys proceed independently and idle keys cost
// nothing.
type flight struct {
	mu    sync.Mutex
	locks map[string]*flightLock
}

type flightLock struct {
	mu   sync.Mutex
	refs int
}

func newFlight() *flight {
	return &flight{locks: make(map[string]*flightLock)}
}

// lock acquires the lock for key and returns its release function.
func (f *flight) lock(key string) (unlock func()) {
	f.mu.Lock()
	l := f.locks[key]
	if l == nil {
		l = &flightLock{}
		f.locks[key] = l
	}
	l.refs++
	f.mu.Unlock()

	l.mu.Lock()
	return func() {
		l.mu.Unlock()
		f.mu.Lock()
		l.refs--
		if l.refs == 0 {
			delete(f.locks, key)
		}
		f.mu.Unlock()
	}
}

// Mem is the in-memory backend: a process-local map with no
// persistence and no size bound, matching the pre-store behavior of
// the caches it replaces. The zero value is not usable; call NewMem.
type Mem struct {
	mu      sync.RWMutex
	entries map[string][]byte
	flight  *flight
	ctr     counters
}

// NewMem returns an empty in-memory store.
func NewMem() *Mem {
	return &Mem{entries: make(map[string][]byte), flight: newFlight()}
}

// entryKey is the one string naming (schema, key); no name contains
// the slash.
func entryKey(schema, key string) string { return schema + "/" + key }

// Get returns the payload for (schema, key). The returned slice is a
// copy; callers may retain or mutate it freely.
func (s *Mem) Get(schema, key string) ([]byte, bool) {
	if err := checkNames(schema, key); err != nil {
		s.ctr.misses.Add(1)
		return nil, false
	}
	s.mu.RLock()
	data, ok := s.entries[entryKey(schema, key)]
	s.mu.RUnlock()
	if !ok {
		s.ctr.misses.Add(1)
		return nil, false
	}
	s.ctr.hits.Add(1)
	out := make([]byte, len(data))
	copy(out, data)
	return out, true
}

// Put stores a copy of data under (schema, key).
func (s *Mem) Put(schema, key string, data []byte) error {
	if err := checkNames(schema, key); err != nil {
		return err
	}
	cp := make([]byte, len(data))
	copy(cp, data)
	s.mu.Lock()
	s.entries[entryKey(schema, key)] = cp
	s.mu.Unlock()
	s.ctr.puts.Add(1)
	return nil
}

// Do returns the payload for (schema, key), filling on a miss under a
// per-key lock so concurrent callers of the same key fill once.
func (s *Mem) Do(schema, key string, fill func() ([]byte, error)) ([]byte, bool, error) {
	if err := checkNames(schema, key); err != nil {
		return nil, false, err
	}
	unlock := s.flight.lock(entryKey(schema, key))
	defer unlock()
	if data, ok := s.Get(schema, key); ok {
		return data, true, nil
	}
	data, err := fill()
	if err != nil {
		return nil, false, err
	}
	if err := s.Put(schema, key, data); err != nil {
		return nil, false, err
	}
	return data, false, nil
}

// Stats returns a snapshot of the store's counters.
func (s *Mem) Stats() Stats { return s.ctr.snapshot() }
