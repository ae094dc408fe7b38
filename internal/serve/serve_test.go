package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	pynamic "repro"
)

// newTestServer returns a server over a fresh engine plus its HTTP
// test harness.
func newTestServer(t *testing.T, opts Options) (*pynamic.Engine, *Server, *httptest.Server) {
	t.Helper()
	eng, err := pynamic.New()
	if err != nil {
		t.Fatal(err)
	}
	sv := New(eng, opts)
	ts := httptest.NewServer(sv.Handler())
	t.Cleanup(func() { ts.Close(); sv.Close() })
	return eng, sv, ts
}

// submit posts body to /v1/jobs and returns the job id.
func submit(t *testing.T, ts *httptest.Server, body []byte) string {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d", resp.StatusCode)
	}
	var out struct{ ID string }
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.ID == "" {
		t.Fatal("submit: empty job id")
	}
	return out.ID
}

// poll GETs the job until its status leaves queued/running.
func poll(t *testing.T, ts *httptest.Server, id string) SpecStatus {
	t.Helper()
	deadline := time.Now().Add(120 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var st SpecStatus
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if st.Status != StatusQueued && st.Status != StatusRunning {
			return st
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("job %s did not finish in time", id)
	return SpecStatus{}
}

// TestSubmitPollGolden is the serve-layer acceptance path: submit the
// committed 2-rank request, poll to completion, and require the
// canonical result bytes to match the golden file — the same file the
// CI smoke diffs curl output against. Regenerate with
// PYNAMIC_UPDATE_GOLDEN=1 go test ./internal/serve -run Golden.
func TestSubmitPollGolden(t *testing.T) {
	_, _, ts := newTestServer(t, Options{})
	req, err := os.ReadFile(filepath.Join("testdata", "job_request.json"))
	if err != nil {
		t.Fatal(err)
	}
	id := submit(t, ts, req)
	if st := poll(t, ts, id); st.Status != StatusDone {
		t.Fatalf("job %s: status %s (error %q)", id, st.Status, st.Error)
	}

	resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result: status %d", resp.StatusCode)
	}
	var got bytes.Buffer
	if _, err := got.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}

	golden := filepath.Join("testdata", "job_golden.json")
	if os.Getenv("PYNAMIC_UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(golden, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("golden updated: %s (%d bytes)", golden, got.Len())
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (regenerate with PYNAMIC_UPDATE_GOLDEN=1)", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("result diverges from %s (regenerate with PYNAMIC_UPDATE_GOLDEN=1 "+
			"if the change is intended)\ngot %d bytes, want %d bytes",
			golden, got.Len(), len(want))
	}
}

// TestJobRequestTranslation pins the /v1/jobs vocabulary onto the spec
// vocabulary: each JobRequest has a hand-written spec twin, and
// together the cases cover every JobRequest field. The job id must be
// the twin's canonical hash, and the two documents, run on separate
// servers, must serve the same result bytes.
func TestJobRequestTranslation(t *testing.T) {
	cases := []struct{ name, job, spec string }{
		{"defaults", // ranks 0 is one rank, seed 0 the profile seed, tasks 0 is 32
			`{"scale":40,"funcs_div":10}`,
			`{"version":1,"kind":"job","workload":{"scale_div":40,"funcs_div":10},
			  "topology":{"tasks":32,"ranks":1}}`},
		{"ranks-round-robin-mpi",
			`{"mode":"link","tasks":16,"ranks":4,"scale":40,"funcs_div":10,"seed":11,
			  "placement":"round-robin","mpi_test":true}`,
			`{"version":1,"kind":"job","seed":11,"workload":{"scale_div":40,"funcs_div":10},
			  "build":{"mode":"link"},
			  "topology":{"tasks":16,"ranks":4,"placement":"round-robin","mpi_test":true}}`},
		{"detailed",
			`{"mode":"link-bind","tasks":2,"ranks":2,"scale":80,"funcs_div":20,"seed":3,"detailed":true}`,
			`{"version":1,"kind":"job","seed":3,"workload":{"scale_div":80,"funcs_div":20},
			  "build":{"mode":"link-bind","backend":"detailed"},"topology":{"tasks":2,"ranks":2}}`},
		{"coverage-heterogeneity",
			`{"tasks":16,"ranks":16,"scale":40,"funcs_div":10,"seed":5,"coverage":0.5,
			  "rank_skew":0.3,"straggler_frac":0.5,"straggler_io_scale":6,"warm_node_frac":0.5}`,
			`{"version":1,"kind":"job","seed":5,"workload":{"scale_div":40,"funcs_div":10},
			  "topology":{"tasks":16,"coverage":0.5,"rank_skew":0.3,
			              "straggler_frac":0.5,"straggler_io_scale":6,"warm_node_frac":0.5}}`},
		{"committed-request", // job_request.json against spec_request.json
			`{"mode":"link","tasks":16,"ranks":2,"scale":40,"funcs_div":10,"seed":42}`,
			`{"version":1,"kind":"job","seed":42,"workload":{"scale_div":40,"funcs_div":10},
			  "build":{"mode":"link"},"topology":{"tasks":16,"ranks":2}}`},
	}
	_, _, jobs := newTestServer(t, Options{})
	_, _, specs := newTestServer(t, Options{})
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			id := submit(t, jobs, []byte(tc.job))
			hash, code := submitSpecBody(t, specs, []byte(tc.spec))
			if code != http.StatusAccepted {
				t.Fatalf("spec twin: status %d", code)
			}
			if id != hash {
				t.Fatalf("job id %s, want the spec twin's hash %s", id, hash)
			}
			if st := poll(t, jobs, id); st.Status != StatusDone {
				t.Fatalf("job %s: status %s (%s)", id, st.Status, st.Error)
			}
			if st := pollSpec(t, specs, hash); st.Status != StatusDone {
				t.Fatalf("spec %s: status %s (%s)", hash, st.Status, st.Error)
			}
			got := getBytes(t, jobs, "/v1/jobs/"+id+"/result")
			want := getBytes(t, specs, "/v1/specs/"+hash+"/result")
			if !bytes.Equal(got, want) {
				t.Fatalf("job and spec twin results differ: %d vs %d bytes", len(got), len(want))
			}
		})
	}
}

// TestConcurrentSubmissionsShareWorkloadCache submits two requests
// that build the same workload but differ in build mode (identical
// requests would dedup onto one record): both jobs must succeed, and
// the second generation must be served by the shared engine's workload
// cache.
func TestConcurrentSubmissionsShareWorkloadCache(t *testing.T) {
	eng, _, ts := newTestServer(t, Options{MaxConcurrent: 2})
	idA := submit(t, ts, []byte(`{"mode":"vanilla","tasks":8,"ranks":2,"scale":50,"funcs_div":10,"seed":7}`))
	idB := submit(t, ts, []byte(`{"mode":"link","tasks":8,"ranks":2,"scale":50,"funcs_div":10,"seed":7}`))
	stA, stB := poll(t, ts, idA), poll(t, ts, idB)
	if stA.Status != StatusDone || stB.Status != StatusDone {
		t.Fatalf("statuses: %s / %s", stA.Status, stB.Status)
	}
	cs := eng.WorkloadCacheStats()
	if cs.Hits == 0 {
		t.Fatalf("second submission did not hit the workload cache: %+v", cs)
	}
}

// TestCancelJob cancels a heavyweight job mid-flight and expects the
// canceled status, not a result.
func TestCancelJob(t *testing.T) {
	_, _, ts := newTestServer(t, Options{})
	// Near-full-scale generation takes long enough that the DELETE
	// lands while the job is still generating.
	id := submit(t, ts, []byte(`{"mode":"vanilla","tasks":4,"scale":2,"seed":99}`))
	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+id, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	st := poll(t, ts, id)
	if st.Status != StatusCanceled {
		t.Fatalf("canceled job reported %q (error %q)", st.Status, st.Error)
	}
	if st.Result != nil {
		t.Fatal("canceled job carries a result")
	}
}

// TestListings covers the catalog endpoints and the error paths.
func TestListings(t *testing.T) {
	_, _, ts := newTestServer(t, Options{})

	resp, err := http.Get(ts.URL + "/v1/experiments")
	if err != nil {
		t.Fatal(err)
	}
	var exps struct{ Experiments []pynamic.ExperimentInfo }
	if err := json.NewDecoder(resp.Body).Decode(&exps); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	names := map[string]bool{}
	for _, e := range exps.Experiments {
		names[e.Name] = true
	}
	for _, want := range []string{"dllcount", "jobdist", "scenario:startup-storm"} {
		if !names[want] {
			t.Fatalf("experiments listing missing %q (have %d entries)", want, len(exps.Experiments))
		}
	}

	resp, err = http.Get(ts.URL + "/v1/scenarios")
	if err != nil {
		t.Fatal(err)
	}
	var scens struct {
		Scenarios []struct {
			Name       string
			Experiment string
			GridPoints int `json:"grid_points"`
			Knobs      []struct {
				Name   string
				Type   string
				Values []any
			}
		}
	}
	if err := json.NewDecoder(resp.Body).Decode(&scens); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(scens.Scenarios) == 0 {
		t.Fatal("empty scenario catalog")
	}
	for _, sc := range scens.Scenarios {
		if !strings.HasPrefix(sc.Experiment, "scenario:") || sc.GridPoints == 0 || len(sc.Knobs) == 0 {
			t.Fatalf("bad scenario entry: %+v", sc)
		}
		for _, k := range sc.Knobs {
			if k.Name == "" || k.Type == "" || len(k.Values) == 0 {
				t.Fatalf("scenario %s: untyped knob %+v", sc.Name, k)
			}
		}
	}

	if resp, err = http.Get(ts.URL + "/v1/jobs/nope"); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job: status %d", resp.StatusCode)
	}

	bad := []string{
		`{"mode":"turbo"}`,
		`{"tasks":-1}`,
		`{"tasks":4,"ranks":9}`,
		`{"unknown_field":1}`,
		// A valid request padded past the 1 MiB body cap.
		strings.Repeat(" ", 1<<20) + `{"tasks":1,"scale":40,"funcs_div":10}`,
	}
	for _, body := range bad {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("body %.40q (%d bytes): status %d, want 400", body, len(body), resp.StatusCode)
		}
	}
}

// TestResultBeforeDone asks for a result while the job is still
// running and expects 409.
func TestResultBeforeDone(t *testing.T) {
	_, _, ts := newTestServer(t, Options{})
	id := submit(t, ts, []byte(`{"mode":"vanilla","tasks":4,"scale":2,"seed":5}`))
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/result")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("early result: status %d, want 409", resp.StatusCode)
	}
	// Drain: cancel so the test does not leave a near-full-scale
	// generation running.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+id, nil)
	if resp, err = http.DefaultClient.Do(req); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	poll(t, ts, id)
}
