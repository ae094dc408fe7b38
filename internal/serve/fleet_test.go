package serve

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	pynamic "repro"
	"repro/internal/fleet"
	"repro/internal/jobstore"
)

// heavySpec is a job document sized to run for over a second on a
// development machine — long enough for a test to observe it running
// and crash the replica executing it.
var heavySpec = []byte(`{"version":1,"kind":"job","seed":7,
	"workload":{"scale_div":2,"funcs_div":1},
	"topology":{"tasks":16,"ranks":2}}`)

// replica assembles one fleet member: a disk job store opened as node
// in storeDir, an engine persisting to cacheDir, and a server with
// short lease/steal timings so tests observe takeovers quickly.
func replica(t *testing.T, storeDir, cacheDir, node string, maxConc int) (*pynamic.Engine, *Server, *httptest.Server, *jobstore.Disk) {
	t.Helper()
	st, err := jobstore.OpenDisk(storeDir, node)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := pynamic.New(pynamic.WithCacheDir(cacheDir))
	if err != nil {
		t.Fatal(err)
	}
	sv := New(eng, Options{
		NodeID:        node,
		Store:         st,
		LeaseTTL:      400 * time.Millisecond,
		StealInterval: 50 * time.Millisecond,
		MaxConcurrent: maxConc,
	})
	ts := httptest.NewServer(sv.Handler())
	t.Cleanup(func() { ts.Close(); sv.Close() })
	return eng, sv, ts, st
}

// specHash computes the canonical content hash the serve layer will
// assign to doc.
func specHash(t *testing.T, eng *pynamic.Engine, doc []byte) string {
	t.Helper()
	spec, err := pynamic.ParseSpec(doc)
	if err != nil {
		t.Fatal(err)
	}
	exp, err := eng.ExpandSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	return exp.Hash
}

// referenceResult runs doc on an isolated single server and returns
// the /result bytes — the ground truth a recovered or stolen
// execution must reproduce byte for byte.
func referenceResult(t *testing.T, doc []byte) []byte {
	t.Helper()
	_, _, ts := newTestServer(t, Options{})
	id, code := submitSpecBody(t, ts, doc)
	if code != http.StatusAccepted {
		t.Fatalf("reference submit: status %d", code)
	}
	if st := pollSpec(t, ts, id); st.Status != StatusDone {
		t.Fatalf("reference run: status %s (%s)", st.Status, st.Error)
	}
	return getBytes(t, ts, "/v1/specs/"+id+"/result")
}

// TestServeRecoversAfterCrash is the ISSUE's crash-recovery gate at
// the serve layer: a replica is "SIGKILLed" with one spec running and
// one queued (its store handle closed first, so no terminal status can
// be written — exactly what a dead process cannot write), and a fresh
// server over the same store directory must adopt both rows at startup
// and drive them to done, with result bytes identical to a normal run.
func TestServeRecoversAfterCrash(t *testing.T) {
	storeDir, cacheDir := t.TempDir(), t.TempDir()
	golden, err := os.ReadFile(filepath.Join("testdata", "spec_request.json"))
	if err != nil {
		t.Fatal(err)
	}

	// Life 1: MaxConcurrent 1, so the heavy job runs while the golden
	// spec waits queued behind it.
	eng1, sv1, ts1, st1 := replica(t, storeDir, cacheDir, "n1", 1)
	heavyID, code := submitSpecBody(t, ts1, heavySpec)
	if code != http.StatusAccepted {
		t.Fatalf("heavy submit: status %d", code)
	}
	goldenID, code := submitSpecBody(t, ts1, golden)
	if code != http.StatusAccepted {
		t.Fatalf("golden submit: status %d", code)
	}
	if specHash(t, eng1, heavySpec) != heavyID {
		t.Fatalf("heavy id %s is not the spec's canonical hash", heavyID)
	}

	// Wait until the heavy job's claim is on disk, then crash: store
	// first (so the doomed workers' terminal writes fail like a dead
	// process's would), then the listener and the server.
	deadline := time.Now().Add(30 * time.Second)
	for {
		if j, ok := st1.Get(heavyID); ok && j.Status == jobstore.StatusRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("heavy job never reached running in the store")
		}
		time.Sleep(5 * time.Millisecond)
	}
	_ = st1.Close()
	ts1.Close()
	sv1.Close()

	// Life 2: same store directory, same node name — the restart path.
	_, sv2, ts2, _ := replica(t, storeDir, cacheDir, "n1", 2)
	if got := sv2.Recovered(); got != 2 {
		t.Fatalf("recovered %d jobs at startup, want 2 (running + queued)", got)
	}
	if st := pollSpec(t, ts2, heavyID); st.Status != StatusDone {
		t.Fatalf("recovered heavy job: status %s (%s)", st.Status, st.Error)
	}
	if st := pollSpec(t, ts2, goldenID); st.Status != StatusDone {
		t.Fatalf("recovered golden spec: status %s (%s)", st.Status, st.Error)
	}

	// Byte-identical to the committed golden — the recovered execution
	// is indistinguishable from an uninterrupted one.
	got := getBytes(t, ts2, "/v1/specs/"+goldenID+"/result")
	want, err := os.ReadFile(filepath.Join("testdata", "job_golden.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("recovered result diverges from golden: got %d bytes, want %d", len(got), len(want))
	}
	if m := sv2.Metrics(); m["jobstore_recovered"] != 2 {
		t.Fatalf("jobstore_recovered = %v, want 2", m["jobstore_recovered"])
	}
}

// TestTwoReplicaStealCompletesCrashedWork is the ISSUE's two-replica
// steal gate: two servers share a store directory and a cache
// directory, a job's ring owner is killed mid-execution (store closed,
// listener stopped), and the survivor must steal the expired claim and
// finish the job with result bytes identical to an undisturbed run.
func TestTwoReplicaStealCompletesCrashedWork(t *testing.T) {
	want := referenceResult(t, heavySpec)

	storeDir, cacheDir := t.TempDir(), t.TempDir()
	engA, svA, tsA, stA := replica(t, storeDir, cacheDir, "a", 2)
	_, svB, tsB, stB := replica(t, storeDir, cacheDir, "b", 2)
	members := []string{tsA.URL, tsB.URL}
	flA, err := fleet.New(tsA.URL, members)
	if err != nil {
		t.Fatal(err)
	}
	flB, err := fleet.New(tsB.URL, members)
	if err != nil {
		t.Fatal(err)
	}
	svA.UseFleet(flA)
	svB.UseFleet(flB)

	hash := specHash(t, engA, heavySpec)
	ownerTS, ownerSV, ownerStore := tsA, svA, stA
	survTS, survSV, survStore := tsB, svB, stB
	if flA.Owner(hash) == tsB.URL {
		ownerTS, ownerSV, ownerStore = tsB, svB, stB
		survTS, survSV, survStore = tsA, svA, stA
	}

	id, code := submitSpecBody(t, ownerTS, heavySpec)
	if code != http.StatusAccepted {
		t.Fatalf("submit to owner: status %d", code)
	}
	if id != hash {
		t.Fatalf("submission id %s, want canonical hash %s", id, hash)
	}

	// Observe the claim through the *survivor's* store handle — that
	// both proves cross-handle WAL visibility and guarantees the
	// survivor can see what it is about to steal.
	deadline := time.Now().Add(30 * time.Second)
	for {
		if j, ok := survStore.Get(hash); ok && j.Status == jobstore.StatusRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job never reached running in the shared store")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Kill the owner mid-job: close its store handle first so neither
	// its heartbeats nor its terminal write can land — from the store's
	// point of view the process is gone. The lease now expires on its
	// own and the survivor's steal loop takes over.
	_ = ownerStore.Close()
	ownerTS.Close()

	st := pollSpec(t, survTS, id)
	if st.Status != StatusDone {
		t.Fatalf("survivor finished job as %s (%s), want done", st.Status, st.Error)
	}
	got := getBytes(t, survTS, "/v1/specs/"+id+"/result")
	if !bytes.Equal(got, want) {
		t.Fatalf("stolen result diverges from reference: got %d bytes, want %d", len(got), len(want))
	}
	if m := survSV.Metrics(); m["fleet_steals"] < 1 {
		t.Fatalf("fleet_steals = %v, want >= 1", m["fleet_steals"])
	}
	ownerSV.Close()
}

// TestFleetForwardToOwner: a spec submitted to the replica that does
// NOT own its hash is forwarded to the owner, the owner's 202 is
// relayed verbatim, and reads on the non-owner resolve through the
// fleet proxy even without a shared store.
func TestFleetForwardToOwner(t *testing.T) {
	engA, svA, tsA := newTestServer(t, Options{NodeID: "a"})
	_, svB, tsB := newTestServer(t, Options{NodeID: "b"})
	members := []string{tsA.URL, tsB.URL}
	flA, err := fleet.New(tsA.URL, members)
	if err != nil {
		t.Fatal(err)
	}
	flB, err := fleet.New(tsB.URL, members)
	if err != nil {
		t.Fatal(err)
	}
	svA.UseFleet(flA)
	svB.UseFleet(flB)

	doc, err := os.ReadFile(filepath.Join("testdata", "spec_request.json"))
	if err != nil {
		t.Fatal(err)
	}
	hash := specHash(t, engA, doc)
	ownerTS, ownerSV, otherTS, otherSV := tsA, svA, tsB, svB
	if flA.Owner(hash) == tsB.URL {
		ownerTS, ownerSV, otherTS, otherSV = tsB, svB, tsA, svA
	}

	id, code := submitSpecBody(t, otherTS, doc)
	if code != http.StatusAccepted || id != hash {
		t.Fatalf("forwarded submit: status %d id %q, want 202 %q", code, id, hash)
	}
	if m := otherSV.Metrics(); m["fleet_forwarded"] != 1 {
		t.Fatalf("fleet_forwarded on non-owner = %v, want 1", m["fleet_forwarded"])
	}
	if m := ownerSV.Metrics(); m["specs_submitted"] != 1 {
		t.Fatalf("specs_submitted on owner = %v, want 1", m["specs_submitted"])
	}

	// The record lives on the owner; the non-owner must answer reads
	// for it by proxying — these stores are not shared.
	if st := pollSpec(t, ownerTS, id); st.Status != StatusDone {
		t.Fatalf("owner: status %s (%s)", st.Status, st.Error)
	}
	fromOwner := getBytes(t, ownerTS, "/v1/specs/"+id+"/result")
	fromOther := getBytes(t, otherTS, "/v1/specs/"+id+"/result")
	if !bytes.Equal(fromOwner, fromOther) {
		t.Fatal("proxied result bytes differ from the owner's")
	}

	// Resubmitting to the non-owner forwards again and dedups on the
	// owner — no second execution anywhere.
	if _, code := submitSpecBody(t, otherTS, doc); code != http.StatusOK {
		t.Fatalf("forwarded resubmit: status %d, want 200 dedup", code)
	}

	// A typed job is forwarded as its translated spec: job_request.json
	// is spec_request.json's twin, so it too dedups on the owner.
	job, err := os.ReadFile(filepath.Join("testdata", "job_request.json"))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(otherTS.URL+"/v1/jobs", "application/json", bytes.NewReader(job))
	if err != nil {
		t.Fatal(err)
	}
	reply, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(reply), hash) {
		t.Fatalf("forwarded job: status %d reply %s, want 200 dedup of %s", resp.StatusCode, reply, hash)
	}
	if m := ownerSV.Metrics(); m["specs_deduped"] != 2 {
		t.Fatalf("specs_deduped on owner = %v, want 2", m["specs_deduped"])
	}
}

// TestFleetForwardFallback: when a spec's ring owner is unreachable,
// the receiving replica runs it locally instead of failing the
// submission, and counts the degradation.
func TestFleetForwardFallback(t *testing.T) {
	eng, sv, ts := newTestServer(t, Options{NodeID: "a"})
	// A two-member fleet whose second member is a dead address.
	dead := "http://127.0.0.1:1"
	fl, err := fleet.New(ts.URL, []string{ts.URL, dead})
	if err != nil {
		t.Fatal(err)
	}
	sv.UseFleet(fl)

	// Find a seed whose spec the dead member owns, so submission here
	// must attempt (and fail) a forward.
	var doc []byte
	for seed := 1; seed <= 64; seed++ {
		cand := []byte(fmt.Sprintf(`{"version":1,"kind":"job","seed":%d,
			"workload":{"scale_div":40,"funcs_div":10},"topology":{"tasks":8,"ranks":2}}`, seed))
		if fl.Owner(specHash(t, eng, cand)) == dead {
			doc = cand
			break
		}
	}
	if doc == nil {
		t.Fatal("no candidate spec owned by the dead member")
	}

	id, code := submitSpecBody(t, ts, doc)
	if code != http.StatusAccepted {
		t.Fatalf("fallback submit: status %d", code)
	}
	if st := pollSpec(t, ts, id); st.Status != StatusDone {
		t.Fatalf("fallback run: status %s (%s)", st.Status, st.Error)
	}
	m := sv.Metrics()
	if m["fleet_forward_fallback"] != 1 {
		t.Fatalf("fleet_forward_fallback = %v, want 1", m["fleet_forward_fallback"])
	}
	if m["fleet_members"] != 2 {
		t.Fatalf("fleet_members = %v, want 2", m["fleet_members"])
	}
}

// TestPromMetricsEndpoint: GET /metrics renders the request-latency
// histogram and the full flat counter catalog in Prometheus text
// format, and the fleet_* keys appear only when a fleet is configured.
func TestPromMetricsEndpoint(t *testing.T) {
	_, _, ts := newTestServer(t, Options{})
	doc, err := os.ReadFile(filepath.Join("testdata", "spec_request.json"))
	if err != nil {
		t.Fatal(err)
	}
	id, code := submitSpecBody(t, ts, doc)
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d", code)
	}
	if st := pollSpec(t, ts, id); st.Status != StatusDone {
		t.Fatalf("spec: status %s", st.Status)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type %q, want text/plain exposition", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	for _, want := range []string{
		"# TYPE pynamic_serve_request_seconds histogram",
		`pynamic_serve_request_seconds_bucket{route="specs",le="+Inf"}`,
		"pynamic_serve_request_seconds_count{",
		"pynamic_specs_done 1",
		"pynamic_jobstore_jobs 1",
		"pynamic_engine_phase_sim_sec_startup ",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("/metrics missing %q in:\n%s", want, text)
		}
	}
	if strings.Contains(text, "pynamic_fleet_") {
		t.Fatalf("fleet_* keys exported without a fleet:\n%s", text)
	}
}
