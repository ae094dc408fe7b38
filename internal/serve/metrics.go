package serve

import (
	"net/http"
	"sync/atomic"

	"repro/internal/histo"
	"repro/internal/jobstore"
)

// reqHistName is the histogram family recording wall-clock latency of
// every HTTP request this server handles, labeled by route class. It
// appears in Prometheus text form at GET /metrics.
const reqHistName = "pynamic_serve_request_seconds"

// counters is the server's lifetime counter set, exposed (together
// with gauges derived from the record store and the engine's own
// counters) at GET /v1/metrics. Everything is a monotonically
// increasing count except the queue/running gauges, so a scraper can
// bracket a measurement interval with two snapshots and subtract —
// exactly what internal/loadgen does per sweep cell.
type counters struct {
	specsSubmitted atomic.Int64
	// specsDeduped counts submissions (to /v1/specs or /v1/jobs)
	// answered by an existing live record for the same canonical hash
	// — work the content-addressed job key made unnecessary.
	// specsStoreDeduped counts submissions answered from the engine's
	// persistent store instead (no live record; the result was computed
	// by a previous process life or a sibling replica sharing the cache
	// directory). Store-deduped submissions register an immediately-done
	// record, so they also count under specsDone.
	specsDeduped      atomic.Int64
	specsStoreDeduped atomic.Int64
	specsDone         atomic.Int64
	specsFailed       atomic.Int64
	specsCanceled     atomic.Int64
	// drainRejected counts submissions refused with 503 while the
	// server was draining.
	drainRejected atomic.Int64
	// storeRecovered counts non-terminal job-store rows this server
	// adopted during its startup recovery pass — queued or running work
	// a previous process life (SIGKILL, crash) left behind.
	storeRecovered atomic.Int64
	// fleetForwarded counts spec submissions relayed to their ring
	// owner; fleetForwardFallback counts submissions that fell back to
	// local execution because the owner was unreachable; fleetSteals
	// counts claims taken over from another node (lease expiry or
	// orphaned queue rows). All zero without a fleet.
	fleetForwarded       atomic.Int64
	fleetForwardFallback atomic.Int64
	fleetSteals          atomic.Int64
}

// countFinish bumps the per-outcome counter for one finished record.
func (c *counters) countFinish(status string) {
	switch status {
	case StatusDone:
		c.specsDone.Add(1)
	case StatusFailed:
		c.specsFailed.Add(1)
	case StatusCanceled:
		c.specsCanceled.Add(1)
	}
}

// Metrics returns the full counter catalog as a flat name → value map:
// the server's submission/outcome counters, queue-depth and running
// gauges, and the engine's counters (pynamic.EngineStats.Flatten). The
// catalog is documented in README.md ("/v1/metrics counter catalog");
// names are stable — the load harness and the drain-time flush both
// key on them.
func (s *Server) Metrics() map[string]float64 {
	// The server-side counters, gauges, and the draining flag are all
	// read inside one s.mu section — the same lock every submission,
	// dedup decision, and finish commits under — so a single scrape is
	// a consistent cut: it can never see, say, a terminal record whose
	// outcome counter has not ticked yet.
	s.mu.Lock()
	m := map[string]float64{
		"specs_submitted":     float64(s.ctr.specsSubmitted.Load()),
		"specs_deduped":       float64(s.ctr.specsDeduped.Load()),
		"specs_store_deduped": float64(s.ctr.specsStoreDeduped.Load()),
		"specs_done":          float64(s.ctr.specsDone.Load()),
		"specs_failed":        float64(s.ctr.specsFailed.Load()),
		"specs_canceled":      float64(s.ctr.specsCanceled.Load()),
		"drain_rejected":      float64(s.ctr.drainRejected.Load()),
	}
	var queued, running float64
	for _, id := range s.order {
		switch s.jobs[id].statusOf() {
		case StatusQueued:
			queued++
		case StatusRunning:
			running++
		}
	}
	m["queue_depth"] = queued
	m["running"] = running
	if s.draining {
		m["draining"] = 1
	} else {
		m["draining"] = 0
	}
	fl := s.fleet
	s.mu.Unlock()

	// Job-store counters are always present: even the default in-memory
	// store backs dedup and recovery semantics.
	m["jobstore_jobs"] = float64(len(s.store.List()))
	m["jobstore_recovered"] = float64(s.ctr.storeRecovered.Load())
	if d, ok := s.store.(*jobstore.Disk); ok {
		m["jobstore_compactions"] = float64(d.Compactions())
	}
	// The fleet_* keys are exported only when a fleet is configured —
	// their *presence* is the signal the load harness keys on to decide
	// whether fleet columns are meaningful (-1 sentinel otherwise).
	if fl != nil {
		m["fleet_members"] = float64(len(fl.Members()))
		m["fleet_forwarded"] = float64(s.ctr.fleetForwarded.Load())
		m["fleet_forward_fallback"] = float64(s.ctr.fleetForwardFallback.Load())
		m["fleet_steals"] = float64(s.ctr.fleetSteals.Load())
	}

	for k, v := range s.eng.Stats().Flatten() {
		m[k] = v
	}
	return m
}

// handleMetrics serves GET /v1/metrics: the flat counter map as JSON
// (keys sorted by encoding/json's map ordering, so the body is stable
// for a fixed counter state).
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	writeJSON(w, http.StatusOK, s.Metrics())
}

// handlePromMetrics serves GET /metrics in Prometheus text exposition
// format: the request- and engine-phase latency histograms first, then
// every flat /v1/metrics counter re-exported as a pynamic_-prefixed
// gauge, so one scrape endpoint covers the whole catalog.
func (s *Server) handlePromMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.hist.WritePrometheus(w)
	histo.WriteGauges(w, "pynamic_", s.Metrics())
}
