// Package jobstore is the durable queue underneath pynamic-serve's
// fleet mode: a small job table keyed by spec hash, with lease-based
// claims so that work survives process death. A replica that crashes
// mid-job leaves a running record whose lease expires; any store
// reader (the restarted process, or a sibling sharing the directory)
// can re-claim it, and because results are content-addressed by the
// same spec hash (internal/castore), re-execution is idempotent — the
// worst case is wasted CPU, never divergent results.
//
// Two backends implement the Store interface. Memory is a mutex-
// guarded map for solo serving and tests. Disk persists every
// mutation to an append-only JSON WAL with periodic snapshot
// compaction (temp file, fsync, atomic rename); multiple processes
// share one directory by each writing only node-private files and
// merging everyone's on read, with a deterministic merge rule (done
// dominates, then attempt, then status rank, then recency) so all
// replicas converge on the same view without coordination.
package jobstore

import (
	"encoding/json"
	"errors"
	"sort"
	"time"
)

// Job statuses. They mirror the serve layer's lifecycle: queued →
// running → done | failed | canceled. Done is absorbing — no merge or
// mutation ever moves a job out of done, because its result bytes are
// already in the content-addressed store.
const (
	StatusQueued   = "queued"
	StatusRunning  = "running"
	StatusDone     = "done"
	StatusFailed   = "failed"
	StatusCanceled = "canceled"
)

// Errors returned by Store implementations.
var (
	// ErrNotFound reports that no job exists under the given hash.
	ErrNotFound = errors.New("jobstore: job not found")
	// ErrNotClaimable reports that the job (or, for wildcard claims,
	// every job) is not in a claimable state: it is terminal, or it is
	// running under a live lease held by another node.
	ErrNotClaimable = errors.New("jobstore: job not claimable")
	// ErrNotOwner reports a heartbeat or completion by a node that does
	// not hold the job's current claim.
	ErrNotOwner = errors.New("jobstore: node does not own job")
	// ErrClosed reports an operation on a closed store.
	ErrClosed = errors.New("jobstore: store closed")
)

// Job is one row of the store: a spec (canonical JSON bytes, hash-
// keyed) plus its execution state. Times are unix nanoseconds so the
// row round-trips through JSON without timezone or precision loss.
type Job struct {
	Hash        string          `json:"hash"`
	Spec        json.RawMessage `json:"spec"`
	Status      string          `json:"status"`
	Owner       string          `json:"owner,omitempty"`
	Attempt     int             `json:"attempt"`
	Submitted   int64           `json:"submitted"`
	Updated     int64           `json:"updated"`
	LeaseExpiry int64           `json:"lease_expiry,omitempty"`
	Error       string          `json:"error,omitempty"`
}

// Terminal reports whether the job has finished (successfully or not).
func (j Job) Terminal() bool {
	return j.Status == StatusDone || j.Status == StatusFailed || j.Status == StatusCanceled
}

// claimable reports whether node may take the job at time now: it is
// queued, or running with an expired lease, or running under node's
// own claim (a restarted process re-adopting its previous work).
func (j Job) claimable(node string, now time.Time) bool {
	switch j.Status {
	case StatusQueued:
		return true
	case StatusRunning:
		return j.Owner == node || now.UnixNano() >= j.LeaseExpiry
	default:
		return false
	}
}

// Store is the job table contract shared by the memory and disk
// backends. All methods are safe for concurrent use.
type Store interface {
	// Put upserts a job as queued. If a job with the same hash already
	// exists: done is absorbing (no-op), queued/running are left alone
	// (the work is already pending), and failed/canceled are re-queued
	// with the attempt counter bumped.
	Put(j Job) error
	// Get returns the job under hash, if any.
	Get(hash string) (Job, bool)
	// List returns all jobs ordered by submission time (ties broken by
	// hash), oldest first.
	List() []Job
	// Claim takes a job for node until now+ttl. With hash == "" it
	// claims the oldest claimable job; otherwise that specific job.
	// Claiming bumps the attempt counter and returns the updated row.
	// Returns ErrNotFound / ErrNotClaimable when nothing can be taken.
	Claim(node, hash string, now time.Time, ttl time.Duration) (Job, error)
	// Heartbeat extends node's lease on a running job to now+ttl.
	Heartbeat(hash, node string, now time.Time, ttl time.Duration) error
	// Complete moves a job to a terminal status. Done is accepted from
	// any node (results are content-addressed, so whoever finished
	// first is right); failed/canceled require the claim (or an
	// unclaimed queued job, for cancellation before execution).
	Complete(hash, node, status, errMsg string, now time.Time) error
	// Close releases resources. The disk backend compacts its WAL into
	// a snapshot so a clean shutdown never leaves a replay-pending log.
	Close() error
}

// mergeJob picks the winning version of a job seen in two places
// (local table vs a sibling's WAL or snapshot). The rule is a total
// order so every replica converges on the same row regardless of read
// interleaving: done dominates absolutely; then the higher attempt;
// then the "further along" status; then the most recent update; then
// owner/error bytes as a final deterministic tiebreak.
func mergeJob(a, b Job) Job {
	if a.Status == StatusDone && b.Status != StatusDone {
		return a
	}
	if b.Status == StatusDone && a.Status != StatusDone {
		return b
	}
	if a.Attempt != b.Attempt {
		if a.Attempt > b.Attempt {
			return a
		}
		return b
	}
	if ra, rb := statusRank(a.Status), statusRank(b.Status); ra != rb {
		if ra > rb {
			return a
		}
		return b
	}
	if a.Updated != b.Updated {
		if a.Updated > b.Updated {
			return a
		}
		return b
	}
	if a.Owner != b.Owner {
		if a.Owner > b.Owner {
			return a
		}
		return b
	}
	return a
}

func statusRank(s string) int {
	switch s {
	case StatusFailed, StatusCanceled:
		return 3
	case StatusRunning:
		return 2
	case StatusQueued:
		return 1
	default:
		return 0
	}
}

// table is the pure state machine shared by both backends: a job map
// plus the mutation rules. It does no locking and no I/O — callers
// hold their own mutex and persist the returned rows.
type table struct {
	jobs map[string]Job
}

func newTable() *table { return &table{jobs: make(map[string]Job)} }

// absorb merges an externally observed row (WAL replay, sibling file)
// into the table and reports whether the table changed.
func (t *table) absorb(j Job) bool {
	cur, ok := t.jobs[j.Hash]
	if !ok {
		t.jobs[j.Hash] = j
		return true
	}
	merged := mergeJob(cur, j)
	if len(merged.Spec) == 0 {
		if len(cur.Spec) != 0 {
			merged.Spec = cur.Spec
		} else {
			merged.Spec = j.Spec
		}
	}
	if sameRow(merged, cur) {
		return false
	}
	t.jobs[j.Hash] = merged
	return true
}

// sameRow compares every field except the spec bytes (which are
// immutable for a given hash, so they never decide a merge).
func sameRow(a, b Job) bool {
	return a.Hash == b.Hash && a.Status == b.Status && a.Owner == b.Owner &&
		a.Attempt == b.Attempt && a.Submitted == b.Submitted &&
		a.Updated == b.Updated && a.LeaseExpiry == b.LeaseExpiry && a.Error == b.Error
}

// The mutation methods below — put, claim, heartbeat and complete —
// compute the row a call produces without storing it: a backend stores
// the row (set) only once the mutation is durable, so a failed write
// leaves the table as it was.

// set stores a mutated row.
func (t *table) set(j Job) { t.jobs[j.Hash] = j }

// put applies Put semantics and returns the row to persist, or
// ok=false when the call is a no-op.
func (t *table) put(j Job, now time.Time) (Job, bool) {
	cur, exists := t.jobs[j.Hash]
	if exists {
		switch cur.Status {
		case StatusDone, StatusQueued, StatusRunning:
			return Job{}, false
		}
		// Terminal non-done: re-queue, keeping history.
		cur.Status = StatusQueued
		cur.Owner = ""
		cur.Error = ""
		cur.LeaseExpiry = 0
		cur.Attempt++
		cur.Updated = now.UnixNano()
		return cur, true
	}
	j.Status = StatusQueued
	j.Owner = ""
	j.LeaseExpiry = 0
	if j.Submitted == 0 {
		j.Submitted = now.UnixNano()
	}
	j.Updated = now.UnixNano()
	return j, true
}

// claim applies Claim semantics; see Store.Claim.
func (t *table) claim(node, hash string, now time.Time, ttl time.Duration) (Job, error) {
	if hash == "" {
		best, ok := Job{}, false
		for _, j := range t.jobs {
			// Wildcard claims never re-take the claimant's own live
			// running jobs — only queued work and expired leases.
			// (Targeted claims do allow self re-adoption after restart.)
			if j.Status == StatusRunning && j.Owner == node && now.UnixNano() < j.LeaseExpiry {
				continue
			}
			if !j.claimable(node, now) {
				continue
			}
			if !ok || jobOlder(j, best) {
				best, ok = j, true
			}
		}
		if !ok {
			return Job{}, ErrNotClaimable
		}
		hash = best.Hash
	}
	j, exists := t.jobs[hash]
	if !exists {
		return Job{}, ErrNotFound
	}
	if !j.claimable(node, now) {
		return Job{}, ErrNotClaimable
	}
	j.Status = StatusRunning
	j.Owner = node
	j.Attempt++
	j.LeaseExpiry = now.Add(ttl).UnixNano()
	j.Updated = now.UnixNano()
	return j, nil
}

func (t *table) heartbeat(hash, node string, now time.Time, ttl time.Duration) (Job, error) {
	j, exists := t.jobs[hash]
	if !exists {
		return Job{}, ErrNotFound
	}
	if j.Status != StatusRunning || j.Owner != node {
		return Job{}, ErrNotOwner
	}
	j.LeaseExpiry = now.Add(ttl).UnixNano()
	j.Updated = now.UnixNano()
	return j, nil
}

func (t *table) complete(hash, node, status, errMsg string, now time.Time) (Job, bool, error) {
	j, exists := t.jobs[hash]
	if !exists {
		return Job{}, false, ErrNotFound
	}
	if j.Status == StatusDone {
		return Job{}, false, nil // absorbing; late completions are no-ops
	}
	if status != StatusDone {
		if j.Status == StatusRunning && j.Owner != node {
			return Job{}, false, ErrNotOwner
		}
	}
	j.Status = status
	j.Owner = node
	j.Error = errMsg
	j.LeaseExpiry = 0
	j.Updated = now.UnixNano()
	return j, true, nil
}

func (t *table) list() []Job {
	out := make([]Job, 0, len(t.jobs))
	for _, j := range t.jobs {
		out = append(out, j)
	}
	sort.Slice(out, func(i, k int) bool { return jobOlder(out[i], out[k]) })
	return out
}

func jobOlder(a, b Job) bool {
	if a.Submitted != b.Submitted {
		return a.Submitted < b.Submitted
	}
	return a.Hash < b.Hash
}
