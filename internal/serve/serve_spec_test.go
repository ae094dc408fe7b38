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
)

// submitSpecBody posts a spec document and returns the response id and
// status code.
func submitSpecBody(t *testing.T, ts *httptest.Server, body []byte) (string, int) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/specs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out struct{ ID string }
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out.ID, resp.StatusCode
}

// pollSpec GETs the spec until its status leaves queued/running.
func pollSpec(t *testing.T, ts *httptest.Server, id string) SpecStatus {
	t.Helper()
	deadline := time.Now().Add(120 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(ts.URL + "/v1/specs/" + id)
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
	t.Fatalf("spec %s did not finish in time", id)
	return SpecStatus{}
}

// TestSpecSubmitMatchesJobGolden is the serve-layer Spec equivalence
// gate: POSTing the committed spec (the declarative twin of
// job_request.json) must produce inner result bytes identical to the
// /v1/jobs golden — the same file the typed-submission test and the
// CI smoke assert against.
func TestSpecSubmitMatchesJobGolden(t *testing.T) {
	_, _, ts := newTestServer(t, Options{})
	req, err := os.ReadFile(filepath.Join("testdata", "spec_request.json"))
	if err != nil {
		t.Fatal(err)
	}
	id, code := submitSpecBody(t, ts, req)
	if code != http.StatusAccepted || id == "" {
		t.Fatalf("submit: status %d id %q", code, id)
	}
	if len(id) != 64 {
		t.Fatalf("spec id %q is not a canonical content hash", id)
	}
	st := pollSpec(t, ts, id)
	if st.Status != StatusDone {
		t.Fatalf("spec %s: status %s (error %q)", id, st.Status, st.Error)
	}
	if st.Kind != "job" || st.Result == nil || st.Result.Job == nil {
		t.Fatalf("bad status payload: kind %q result %+v", st.Kind, st.Result)
	}
	if st.Result.Hash != id {
		t.Fatalf("result hash %s differs from job key %s", st.Result.Hash, id)
	}

	resp, err := http.Get(ts.URL + "/v1/specs/" + id + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var got bytes.Buffer
	if _, err := got.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "job_golden.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("spec result diverges from the /v1/jobs golden: got %d bytes, want %d",
			got.Len(), len(want))
	}
}

// TestSpecSubmitDedup: resubmitting an identical spec joins the
// existing record under the same hash instead of re-running it, and a
// semantically identical document (different formatting, explicit
// defaults) lands on the same key.
func TestSpecSubmitDedup(t *testing.T) {
	_, _, ts := newTestServer(t, Options{})
	doc := []byte(`{"version":1,"kind":"job","seed":5,
		"workload":{"scale_div":50,"funcs_div":10},
		"topology":{"tasks":8,"ranks":2}}`)
	id1, code1 := submitSpecBody(t, ts, doc)
	if code1 != http.StatusAccepted {
		t.Fatalf("first submit: status %d", code1)
	}
	// Same meaning, different document: explicit defaults, shuffled
	// field order.
	equiv := []byte(`{"kind":"job","version":1,
		"topology":{"ranks":2,"tasks":8,"placement":"block","coverage":1},
		"workload":{"funcs_div":10,"scale_div":50,"profile":"llnl"},
		"seed":5,"name":"same-thing"}`)
	id2, code2 := submitSpecBody(t, ts, equiv)
	if id2 != id1 {
		t.Fatalf("equivalent spec got a different job key: %s vs %s", id2, id1)
	}
	if code2 != http.StatusOK {
		t.Fatalf("dedup submit: status %d, want 200", code2)
	}
	if st := pollSpec(t, ts, id1); st.Status != StatusDone {
		t.Fatalf("spec: status %s (%s)", st.Status, st.Error)
	}

	// The spec listing shows exactly one record.
	resp, err := http.Get(ts.URL + "/v1/specs")
	if err != nil {
		t.Fatal(err)
	}
	var list struct {
		Specs []struct{ ID, Status, Kind string }
	}
	err = json.NewDecoder(resp.Body).Decode(&list)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(list.Specs) != 1 || list.Specs[0].ID != id1 || list.Specs[0].Kind != "job" {
		t.Fatalf("spec listing: %+v", list.Specs)
	}

	// /v1/jobs/{hash} is an alias: the spec hash resolves there too.
	resp, err = http.Get(ts.URL + "/v1/jobs/" + id1)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("spec hash under /v1/jobs/: status %d, want 200", resp.StatusCode)
	}
}

// TestSpecScenarioKnobs: a scenario spec with overridden knobs runs,
// and the status payload reports the resolved knob set — the
// service-side fix for "/v1/scenarios advertises knobs the service
// cannot run".
func TestSpecScenarioKnobs(t *testing.T) {
	_, _, ts := newTestServer(t, Options{})
	doc := []byte(`{"version":1,"kind":"scenario",
		"scenario":{"name":"nfs-cold-warm","knobs":{"scale_div":80,"funcs_div":20}}}`)
	id, code := submitSpecBody(t, ts, doc)
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d", code)
	}
	st := pollSpec(t, ts, id)
	if st.Status != StatusDone {
		t.Fatalf("scenario spec: status %s (%s)", st.Status, st.Error)
	}
	if len(st.Knobs) != 1 {
		t.Fatalf("resolved knobs missing from status: %+v", st.Knobs)
	}
	point := st.Knobs[0]
	if point.Int("scale_div") != 80 || point.Int("funcs_div") != 20 {
		t.Fatalf("resolved point lost the overrides: %+v", point)
	}
	if _, ok := point.LookupInt("tasks"); !ok {
		t.Fatalf("resolved point lost the defaulted knobs: %+v", point)
	}
	if st.Result == nil || st.Result.Experiment == nil ||
		len(st.Result.Experiment.Cells) == 0 {
		t.Fatalf("scenario result missing: %+v", st.Result)
	}
	if got := st.Result.Experiment.Cells[0].Params.Int("scale_div"); got != 80 {
		t.Fatalf("cell ran scale_div %d, want the overridden 80", got)
	}
}

// TestSpecSubmitErrors: malformed documents are rejected with 400 and
// a field-path error message.
func TestSpecSubmitErrors(t *testing.T) {
	_, _, ts := newTestServer(t, Options{})
	cases := []struct {
		body string
		want string // substring of the error payload
	}{
		{`{"version":1,"kind":"turbo"}`, "kind"},
		{`{"version":1,"kind":"run","bogus":1}`, "unknown field"},
		{`{"version":1,"kind":"scenario","scenario":{"name":"nfs-cold-warm","knobs":{"bogus":1}}}`,
			"scenario.knobs.bogus"},
		{`{"version":1,"kind":"matrix","matrix":{"experiments":["nope"]}}`, "matrix.experiments[0]"},
		{`not json`, "parse spec"},
	}
	for _, tc := range cases {
		resp, err := http.Post(ts.URL+"/v1/specs", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		var got bytes.Buffer
		if _, err := got.ReadFrom(resp.Body); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("body %s: status %d, want 400", tc.body, resp.StatusCode)
		}
		if !strings.Contains(got.String(), tc.want) {
			t.Fatalf("body %s: error %q does not mention %q", tc.body, got.String(), tc.want)
		}
	}

	// Unknown spec id → 404; result before done → 409.
	resp, err := http.Get(ts.URL + "/v1/specs/feedbeef")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown spec: status %d", resp.StatusCode)
	}
}

// TestSpecCancel: DELETE cancels a running spec; resubmitting after
// cancellation re-runs it under the same key.
func TestSpecCancel(t *testing.T) {
	_, _, ts := newTestServer(t, Options{})
	doc := []byte(`{"version":1,"kind":"job","seed":3,
		"workload":{"scale_div":2},
		"topology":{"tasks":8,"ranks":2}}`)
	id, code := submitSpecBody(t, ts, doc)
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d", code)
	}
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/specs/"+id, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	st := pollSpec(t, ts, id)
	if st.Status != StatusCanceled && st.Status != StatusDone {
		t.Fatalf("canceled spec: status %s", st.Status)
	}
	if st.Status == StatusCanceled {
		// A canceled record must be replaceable: the retry is accepted
		// as a fresh run under the same hash (202, not the dedup 200).
		id2, code2 := submitSpecBody(t, ts, doc)
		if id2 != id || code2 != http.StatusAccepted {
			t.Fatalf("retry after cancel: id %s status %d", id2, code2)
		}
		// Cancel the retry too — the test proves replacement, not the
		// (expensive) full run.
		req2, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/specs/"+id2, nil)
		resp2, err := http.DefaultClient.Do(req2)
		if err != nil {
			t.Fatal(err)
		}
		resp2.Body.Close()
		pollSpec(t, ts, id2)
	}
}
