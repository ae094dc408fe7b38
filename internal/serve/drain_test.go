package serve

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// post POSTs body to the path and returns the status code.
func post(t *testing.T, ts *httptest.Server, path string, body []byte) int {
	t.Helper()
	resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

// TestDrainFinishesInFlightWork is the graceful-shutdown gate: work
// admitted before Drain finishes cleanly, work after it gets a 503,
// and the drain_rejected counter records every refusal.
func TestDrainFinishesInFlightWork(t *testing.T) {
	_, sv, ts := newTestServer(t, Options{})

	spec, err := os.ReadFile(filepath.Join("testdata", "spec_request.json"))
	if err != nil {
		t.Fatal(err)
	}
	// Not job_request.json: that is spec_request.json's twin, and would
	// dedup onto the spec's record.
	job := []byte(`{"mode":"link","tasks":16,"ranks":2,"scale":40,"funcs_div":10,"seed":43}`)

	specID, code := submitSpecBody(t, ts, spec)
	if code != http.StatusAccepted {
		t.Fatalf("pre-drain spec submit: status %d", code)
	}
	jobID := submit(t, ts, job)

	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	if err := sv.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}

	// The admitted work reached terminal status before Drain returned.
	if st := pollSpec(t, ts, specID); st.Status != StatusDone {
		t.Fatalf("spec drained into status %s", st.Status)
	}
	if st := poll(t, ts, jobID); st.Status != StatusDone {
		t.Fatalf("job drained into status %s", st.Status)
	}

	// A draining server refuses new work on both submission paths but
	// keeps serving reads.
	if code := post(t, ts, "/v1/specs", spec); code != http.StatusServiceUnavailable {
		t.Fatalf("post-drain spec submit: status %d, want 503", code)
	}
	if code := post(t, ts, "/v1/jobs", job); code != http.StatusServiceUnavailable {
		t.Fatalf("post-drain job submit: status %d, want 503", code)
	}
	resp, err := http.Get(ts.URL + "/v1/specs/" + specID)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-drain read: status %d", resp.StatusCode)
	}

	m := sv.Metrics()
	if m["draining"] != 1 {
		t.Fatalf("draining gauge %v, want 1", m["draining"])
	}
	if m["drain_rejected"] != 2 {
		t.Fatalf("drain_rejected %v, want 2", m["drain_rejected"])
	}
	if m["queue_depth"] != 0 || m["running"] != 0 {
		t.Fatalf("drained server still reports queue_depth %v running %v",
			m["queue_depth"], m["running"])
	}

	// Drain is idempotent: a second call returns immediately.
	if err := sv.Drain(ctx); err != nil {
		t.Fatalf("second drain: %v", err)
	}
}

// TestDrainTimeout checks Drain surrenders to its context rather than
// hanging when work cannot finish in time.
func TestDrainTimeout(t *testing.T) {
	_, sv, _ := newTestServer(t, Options{})
	// Hold a fake worker open so the WaitGroup never drains.
	sv.workers.Add(1)
	defer sv.workers.Done()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := sv.Drain(ctx); err != context.DeadlineExceeded {
		t.Fatalf("drain with stuck worker: %v, want deadline exceeded", err)
	}
}
