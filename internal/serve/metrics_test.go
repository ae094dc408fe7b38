package serve

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
)

// scrapeMetrics GETs /v1/metrics and decodes the counter map.
func scrapeMetrics(t *testing.T, ts *httptest.Server) map[string]float64 {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/metrics: status %d", resp.StatusCode)
	}
	var m map[string]float64
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	return m
}

// loadSpec reads the committed spec request and a same-shape variant
// with a different seed (a distinct content hash).
func loadSpec(t *testing.T) (original, variant []byte) {
	t.Helper()
	original, err := os.ReadFile(filepath.Join("testdata", "spec_request.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(original, &doc); err != nil {
		t.Fatal(err)
	}
	doc["seed"] = float64(424242)
	variant, err = json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	return original, variant
}

// TestMetricsCounterAccuracy is the counter-accuracy gate: submit N
// spec documents of which K are duplicates, and check /v1/metrics
// reports exactly the dedup and completion counts the submissions
// imply.
func TestMetricsCounterAccuracy(t *testing.T) {
	_, _, ts := newTestServer(t, Options{})

	specA, specB := loadSpec(t)

	// Baseline: a fresh server has all-zero traffic counters but does
	// publish the engine and cache gauges.
	m0 := scrapeMetrics(t, ts)
	for _, key := range []string{
		"specs_submitted", "specs_deduped", "specs_done",
		"queue_depth", "running", "draining", "drain_rejected",
		"engine_specs", "workload_cache_hits", "workload_cache_misses",
	} {
		if v, ok := m0[key]; !ok || v != 0 {
			t.Fatalf("fresh server: %s = %v (present %v), want 0", key, v, ok)
		}
	}

	// N=5 submissions, K=3 duplicates of spec A: A, A, A, B, B.
	idA, _ := submitSpecBody(t, ts, specA)
	pollSpec(t, ts, idA) // finish A so later As dedup against a done record
	for i := 0; i < 2; i++ {
		if id, _ := submitSpecBody(t, ts, specA); id != idA {
			t.Fatalf("duplicate submission returned id %s, want %s", id, idA)
		}
	}
	idB, _ := submitSpecBody(t, ts, specB)
	if idB == idA {
		t.Fatal("variant spec hashed to the same id")
	}
	pollSpec(t, ts, idB)
	if id, _ := submitSpecBody(t, ts, specB); id != idB {
		t.Fatal("duplicate of variant did not dedup")
	}

	m := scrapeMetrics(t, ts)
	want := map[string]float64{
		"specs_submitted": 5,
		"specs_deduped":   3, // 2×A + 1×B joined existing records
		"specs_done":      2, // the engine only ever ran A and B once
		"specs_failed":    0,
		"engine_specs":    2,
		"queue_depth":     0,
		"running":         0,
		"draining":        0,
	}
	for key, v := range want {
		if m[key] != v {
			t.Fatalf("%s = %v, want %v (metrics: %v)", key, m[key], v, m)
		}
	}
	// Two distinct workloads on a cold cache: misses, no hits.
	if m["workload_cache_misses"] != 2 || m["workload_cache_hits"] != 0 {
		t.Fatalf("cache hits/misses = %v/%v, want 0/2",
			m["workload_cache_hits"], m["workload_cache_misses"])
	}

	// Resubmitting A now re-runs nothing but must still count the
	// submission; the cache and engine stay untouched.
	submitSpecBody(t, ts, specA)
	m = scrapeMetrics(t, ts)
	if m["specs_submitted"] != 6 || m["specs_deduped"] != 4 || m["engine_specs"] != 2 {
		t.Fatalf("after 6th submission: submitted %v deduped %v engine %v",
			m["specs_submitted"], m["specs_deduped"], m["engine_specs"])
	}
}

// TestMetricsMethodAndShape checks the endpoint's HTTP contract.
func TestMetricsMethodAndShape(t *testing.T) {
	_, sv, ts := newTestServer(t, Options{})
	resp, err := http.Post(ts.URL+"/v1/metrics", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST /v1/metrics: status %d, want 405", resp.StatusCode)
	}
	// The HTTP view and the in-process view are the same catalog.
	httpView := scrapeMetrics(t, ts)
	for key := range sv.Metrics() {
		if _, ok := httpView[key]; !ok {
			t.Fatalf("Metrics() key %q missing from /v1/metrics", key)
		}
	}
}

// TestMetricsCountsJobs checks the /v1/jobs path feeds the specs_*
// counters.
func TestMetricsCountsJobs(t *testing.T) {
	_, _, ts := newTestServer(t, Options{})
	body, err := os.ReadFile(filepath.Join("testdata", "job_request.json"))
	if err != nil {
		t.Fatal(err)
	}
	id := submit(t, ts, body)
	st := poll(t, ts, id)
	if st.Status != StatusDone {
		t.Fatalf("job status %s", st.Status)
	}
	m := scrapeMetrics(t, ts)
	if m["specs_submitted"] != 1 || m["specs_done"] != 1 || m["specs_failed"] != 0 {
		t.Fatalf("job counters: submitted %v done %v failed %v",
			m["specs_submitted"], m["specs_done"], m["specs_failed"])
	}
	// A completed job must surface the simulation-kernel counters: the
	// ranks processed relocations and their loaders carved arena memory.
	if m["kernel_relocs_processed"] <= 0 {
		t.Fatalf("kernel_relocs_processed = %v, want > 0", m["kernel_relocs_processed"])
	}
	if m["kernel_arena_bytes_in_use"] <= 0 {
		t.Fatalf("kernel_arena_bytes_in_use = %v, want > 0", m["kernel_arena_bytes_in_use"])
	}
}
