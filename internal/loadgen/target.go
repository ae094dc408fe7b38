package loadgen

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync/atomic"
	"time"

	pynamic "repro"
)

// Target is one system under load. Do submits a mix entry and blocks
// until the work completes (the closed-loop latency is exactly one Do
// call); Metrics snapshots the target's monotonic counters so a cell
// can report deltas. Implementations must be safe for concurrent Do
// calls.
type Target interface {
	// Name labels the target in artifacts ("engine" or the base URL).
	Name() string
	// Do runs one request to completion.
	Do(ctx context.Context, e MixEntry) error
	// Metrics snapshots the target's counters (nil map if the target
	// cannot report any).
	Metrics(ctx context.Context) (map[string]float64, error)
	// Close releases the target's resources.
	Close() error
}

// EngineTarget drives an in-process Engine: Do is a direct RunSpecCtx
// call, so the measured latency is pure Engine work with no HTTP or
// polling overhead. Because the engine is private to the harness, the
// workload-cache size is a per-cell knob here — the cache-size axis of
// a sweep is only meaningful against in-process targets.
type EngineTarget struct {
	eng *pynamic.Engine
}

// NewEngineTarget builds an in-process target with the given
// workload-cache capacity (0 disables caching). A non-empty cacheDir
// attaches the engine's persistent content-addressed store — the
// in-process equivalent of pynamic-serve's -cache-dir — so a sweep can
// measure warm-store replay.
func NewEngineTarget(cacheSize int, cacheDir string) (*EngineTarget, error) {
	opts := []pynamic.Option{pynamic.WithWorkloadCacheSize(cacheSize)}
	if cacheDir != "" {
		opts = append(opts, pynamic.WithCacheDir(cacheDir))
	}
	eng, err := pynamic.New(opts...)
	if err != nil {
		return nil, err
	}
	return &EngineTarget{eng: eng}, nil
}

// Name implements Target.
func (t *EngineTarget) Name() string { return "engine" }

// Do implements Target: one synchronous spec run.
func (t *EngineTarget) Do(ctx context.Context, e MixEntry) error {
	_, err := t.eng.RunSpecCtx(ctx, e.Spec)
	return err
}

// Metrics implements Target: the engine's counters, flattened under
// the same names the service's /v1/metrics uses, so cell deltas are
// computed identically for both target kinds.
func (t *EngineTarget) Metrics(ctx context.Context) (map[string]float64, error) {
	return t.eng.Stats().Flatten(), nil
}

// Close implements Target.
func (t *EngineTarget) Close() error { return nil }

// HTTPTarget drives a live pynamic-serve instance: Do POSTs the
// entry's canonical spec document to /v1/specs and polls the record
// until it reaches a terminal status, so the measured latency includes
// the full service path — HTTP, queueing behind -max-concurrent, spec
// dedup, and result polling at the poll interval's granularity.
// Metrics scrapes GET /v1/metrics.
type HTTPTarget struct {
	base   string
	client *http.Client
	poll   time.Duration
}

// NewHTTPTarget points the harness at base (e.g.
// "http://127.0.0.1:8080"). pollInterval <= 0 defaults to 5ms.
func NewHTTPTarget(base string, pollInterval time.Duration) *HTTPTarget {
	if pollInterval <= 0 {
		pollInterval = 5 * time.Millisecond
	}
	return &HTTPTarget{
		base:   strings.TrimRight(base, "/"),
		client: &http.Client{Timeout: 30 * time.Second},
		poll:   pollInterval,
	}
}

// Name implements Target.
func (t *HTTPTarget) Name() string { return t.base }

// submitReply is the POST /v1/specs response body.
type submitReply struct {
	ID     string `json:"id"`
	Status string `json:"status"`
	Dedup  string `json:"dedup"`
	Error  string `json:"error"`
}

// Do implements Target: submit the spec, then poll its record until it
// is done. A dedup hit on an already-finished record returns without
// polling — that near-zero latency IS the measurement: it is the
// service answering from its content-addressed job store.
func (t *HTTPTarget) Do(ctx context.Context, e MixEntry) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		t.base+"/v1/specs", bytes.NewReader(e.Body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := t.client.Do(req)
	if err != nil {
		return err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
		return fmt.Errorf("loadgen: submit %s: HTTP %d: %s", e.Name, resp.StatusCode, strings.TrimSpace(string(body)))
	}
	var reply submitReply
	if err := json.Unmarshal(body, &reply); err != nil {
		return fmt.Errorf("loadgen: submit %s: bad reply: %w", e.Name, err)
	}
	if reply.ID == "" {
		return fmt.Errorf("loadgen: submit %s: reply carries no id", e.Name)
	}
	if reply.Status == "done" {
		return nil
	}
	return t.await(ctx, reply.ID)
}

// await polls /v1/specs/{id} until the record reaches a terminal
// status.
func (t *HTTPTarget) await(ctx context.Context, id string) error {
	ticker := time.NewTicker(t.poll)
	defer ticker.Stop()
	for {
		status, errMsg, err := t.status(ctx, id)
		if err != nil {
			return err
		}
		switch status {
		case "done":
			return nil
		case "failed", "canceled":
			return fmt.Errorf("loadgen: spec %s %s: %s", id, status, errMsg)
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-ticker.C:
		}
	}
}

// status reads one record's status.
func (t *HTTPTarget) status(ctx context.Context, id string) (status, errMsg string, err error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, t.base+"/v1/specs/"+id, nil)
	if err != nil {
		return "", "", err
	}
	resp, err := t.client.Do(req)
	if err != nil {
		return "", "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", "", fmt.Errorf("loadgen: poll %s: HTTP %d", id, resp.StatusCode)
	}
	var st struct {
		Status string `json:"status"`
		Error  string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return "", "", fmt.Errorf("loadgen: poll %s: %w", id, err)
	}
	return st.Status, st.Error, nil
}

// Metrics implements Target: one GET /v1/metrics scrape.
func (t *HTTPTarget) Metrics(ctx context.Context) (map[string]float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, t.base+"/v1/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := t.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("loadgen: scrape /v1/metrics: HTTP %d", resp.StatusCode)
	}
	var m map[string]float64
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		return nil, fmt.Errorf("loadgen: scrape /v1/metrics: %w", err)
	}
	return m, nil
}

// Close implements Target.
func (t *HTTPTarget) Close() error {
	t.client.CloseIdleConnections()
	return nil
}

// MultiTarget drives a fleet of pynamic-serve replicas: each Do is
// dispatched to the next replica round-robin, and a failed Do is
// retried in full on each remaining replica before the request counts
// as an error — so a killed replica costs latency, not correctness,
// exactly like a fleet-aware client. Metrics sums the replicas'
// counter snapshots (sums of monotonic counters stay monotonic, so
// cell deltas work unchanged); a key appears in the sum if any replica
// exports it, which is how the fleet_* presence sentinel survives
// aggregation.
type MultiTarget struct {
	targets []*HTTPTarget
	next    atomic.Uint64
}

// NewMultiTarget points the harness at a fleet of base URLs.
func NewMultiTarget(bases []string, pollInterval time.Duration) (*MultiTarget, error) {
	if len(bases) == 0 {
		return nil, fmt.Errorf("loadgen: multi-target needs at least one base URL")
	}
	mt := &MultiTarget{}
	for _, b := range bases {
		mt.targets = append(mt.targets, NewHTTPTarget(b, pollInterval))
	}
	return mt, nil
}

// Name implements Target: the comma-joined replica list.
func (t *MultiTarget) Name() string {
	names := make([]string, len(t.targets))
	for i, tg := range t.targets {
		names[i] = tg.Name()
	}
	return strings.Join(names, ",")
}

// Do implements Target: round-robin with full-request failover. The
// whole submit-and-await sequence is retried on the next replica —
// content-addressed spec keys make the resubmission a dedup or a
// sibling-visible store row, never duplicate work.
func (t *MultiTarget) Do(ctx context.Context, e MixEntry) error {
	start := int(t.next.Add(1)-1) % len(t.targets)
	var lastErr error
	for i := 0; i < len(t.targets); i++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		if err := t.targets[(start+i)%len(t.targets)].Do(ctx, e); err != nil {
			lastErr = err
			continue
		}
		return nil
	}
	return lastErr
}

// Metrics implements Target: the element-wise sum of every replica's
// scrape. All replicas must answer — a partial sum would make cell
// deltas lie about the fleet.
func (t *MultiTarget) Metrics(ctx context.Context) (map[string]float64, error) {
	sum := map[string]float64{}
	for _, tg := range t.targets {
		m, err := tg.Metrics(ctx)
		if err != nil {
			return nil, fmt.Errorf("loadgen: scrape %s: %w", tg.Name(), err)
		}
		for k, v := range m {
			sum[k] += v
		}
	}
	return sum, nil
}

// Close implements Target.
func (t *MultiTarget) Close() error {
	for _, tg := range t.targets {
		tg.Close()
	}
	return nil
}
