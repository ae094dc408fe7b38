package jobstore

import (
	"sync"
	"time"
)

// Memory is the in-process Store: the table state machine behind a
// mutex, with no persistence. It backs solo (fleet-less) serving and
// keeps the serve layer's job lifecycle uniform whether or not a
// cache directory is configured.
type Memory struct {
	mu     sync.Mutex
	t      *table
	closed bool
}

// NewMemory returns an empty in-memory store.
func NewMemory() *Memory { return &Memory{t: newTable()} }

// Put implements Store.
func (m *Memory) Put(j Job) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return ErrClosed
	}
	if row, changed := m.t.put(j, time.Now()); changed { //pynamic:nondeterministic UpdatedAt lease clock: conflict resolution, not canonical bytes
		m.t.set(row)
	}
	return nil
}

// Get implements Store.
func (m *Memory) Get(hash string) (Job, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.t.jobs[hash]
	return j, ok
}

// List implements Store.
func (m *Memory) List() []Job {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.t.list()
}

// Claim implements Store.
func (m *Memory) Claim(node, hash string, now time.Time, ttl time.Duration) (Job, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return Job{}, ErrClosed
	}
	j, err := m.t.claim(node, hash, now, ttl)
	if err != nil {
		return Job{}, err
	}
	m.t.set(j)
	return j, nil
}

// Heartbeat implements Store.
func (m *Memory) Heartbeat(hash, node string, now time.Time, ttl time.Duration) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return ErrClosed
	}
	j, err := m.t.heartbeat(hash, node, now, ttl)
	if err != nil {
		return err
	}
	m.t.set(j)
	return nil
}

// Complete implements Store.
func (m *Memory) Complete(hash, node, status, errMsg string, now time.Time) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return ErrClosed
	}
	j, changed, err := m.t.complete(hash, node, status, errMsg, now)
	if changed {
		m.t.set(j)
	}
	return err
}

// Close implements Store. Further mutations return ErrClosed; reads
// keep working so a draining server can still answer status queries.
func (m *Memory) Close() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.closed = true
	return nil
}
