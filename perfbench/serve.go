package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	pynamic "repro"
	"repro/internal/histo"
	"repro/internal/jobstore"
	"repro/internal/serve"
)

// pollInterval paces a writer's status polls: well under the 5-10 ms a
// tiny spec takes to run, so the wait it adds is small against the
// write it measures.
const pollInterval = time.Millisecond

// opTimeout bounds one serve op, so a spec that never finishes fails
// its op instead of hanging the run.
const opTimeout = 30 * time.Second

// stealInterval is how often the server's steal loop scans the job
// store. pynamic-serve's default is 1 s, but at that rate the loop races
// a finishing worker: adoptClaimable deletes the record finishSpec has
// just marked done and re-claims its still-running row, so a client
// that saw done gets 409 from /result. That fails about one write in
// 4000, a count that differs from run to run, and a benchmark run must
// fail no op. So the loop first fires after the run has ended; set this
// to time.Second to see the race.
const stealInterval = time.Hour

// serveSystem is pynamic-serve's wiring with its defaults (2 concurrent
// jobs, workload cache 16, 15 s lease), except for the steal interval,
// over a fresh -cache-dir, so the disk job store and the
// content-addressed store are both in use, behind a loopback HTTP
// listener.
type serveSystem struct {
	dir    string
	eng    *pynamic.Engine
	srv    *serve.Server
	store  *timedStore
	http   *http.Server
	served chan error
	base   string
	client *http.Client
	*wire

	polls, posts, dedups atomic.Int64
}

// setupServe starts a server in a fresh directory under workDir and
// writes every setup spec through it. It returns how many warm-up
// writes failed; those are reported, not fatal, because with a short
// stealInterval the steal-loop race can hit them too.
func setupServe(ctx context.Context, p *plan, w *wire, workDir string) (*serveSystem, int, error) {
	dir, err := os.MkdirTemp(workDir, "serve-")
	if err != nil {
		return nil, 0, err
	}
	s := &serveSystem{dir: dir, served: make(chan error, 1), wire: w}
	if err := s.start(); err != nil {
		s.close()
		return nil, 0, err
	}
	warm := make([]op, len(p.warm))
	for i, k := range p.warm {
		warm[i] = op{spec: k, write: true}
	}
	var failed atomic.Int64
	forEach(p.clients, len(warm), func(i int) {
		if _, err := s.do(ctx, -1, warm[i], nil, -1); err != nil {
			failed.Add(1)
		}
	})
	if err := ctx.Err(); err != nil {
		s.close()
		return nil, 0, err
	}
	return s, int(failed.Load()), nil
}

// wire is every spec of a plan as a client sends it: the canonical
// document and its hash, the id serve files it under.
type wire struct {
	bodies [][]byte
	hashes []string
}

func newWire(p *plan) (*wire, error) {
	w := &wire{}
	for _, spec := range p.specs {
		body, err := spec.Canonical()
		if err != nil {
			return nil, err
		}
		hash, err := spec.Hash()
		if err != nil {
			return nil, err
		}
		w.bodies = append(w.bodies, body)
		w.hashes = append(w.hashes, hash)
	}
	return w, nil
}

// phaseHistName is pynamic-serve's engine-phase histogram family.
const phaseHistName = "pynamic_engine_phase_sim_seconds"

func (s *serveSystem) start() error {
	hist := histo.NewRegistry()
	hist.Register(phaseHistName,
		"simulated seconds per completed engine phase, by phase name", "phase", histo.SimSecondsBuckets)
	eng, err := pynamic.New(
		pynamic.WithWorkloadCacheSize(16),
		pynamic.WithPhaseObserver(func(phase string, simSec float64) {
			hist.Observe(phaseHistName, phase, simSec)
		}),
		pynamic.WithCacheDir(s.dir))
	if err != nil {
		return err
	}
	s.eng = eng
	jsDir := filepath.Join(s.dir, ".jobstore")
	disk, err := jobstore.OpenDisk(jsDir, "perfbench")
	if err != nil {
		return err
	}
	s.store = &timedStore{Store: disk, dir: jsDir}
	s.srv = serve.New(eng, serve.Options{
		MaxConcurrent: 2,
		NodeID:        "perfbench",
		Store:         s.store,
		LeaseTTL:      15 * time.Second,
		StealInterval: stealInterval,
		Histograms:    hist,
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	s.base = "http://" + ln.Addr().String()
	s.http = &http.Server{Handler: s.srv.Handler()}
	go func() { s.served <- s.http.Serve(ln) }()
	s.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4}}
	return nil
}

// close stops the listener, drains the server (which compacts and
// closes the job store) and removes the directory.
func (s *serveSystem) close() error {
	var errs []error
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if s.http != nil {
		errs = append(errs, s.http.Shutdown(ctx))
		if err := <-s.served; !errors.Is(err, http.ErrServerClosed) {
			errs = append(errs, err)
		}
		s.client.CloseIdleConnections()
	}
	switch {
	case s.srv != nil:
		errs = append(errs, s.srv.Drain(ctx))
		s.srv.Close()
	case s.store != nil:
		errs = append(errs, s.store.Close())
	}
	errs = append(errs, os.RemoveAll(s.dir))
	return errors.Join(errs...)
}

func (s *serveSystem) engine() *pynamic.Engine { return s.eng }

// specReply is the part of a submission or status reply an op reads.
type specReply struct {
	Status string `json:"status"`
	Dedup  string `json:"dedup"`
}

// do is one closed-loop client request. A write POSTs a fresh spec and
// expects 202, polls its status until done, then GETs the result; a
// read resubmits a stored spec, expects 200 with a dedup marker, then
// GETs the result. Any unexpected status, including a 409 from /result
// after done was seen, fails the op; nothing is retried.
func (s *serveSystem) do(ctx context.Context, id int, o op, tr *tracer, parent int) ([]byte, error) {
	ctx, cancel := context.WithTimeout(ctx, opTimeout)
	defer cancel()
	hash := s.hashes[o.spec]
	s.store.bind(hash, id)
	name, want := "serve.submit_dedup", http.StatusOK
	if o.write {
		name, want = "serve.submit_fresh", http.StatusAccepted
	}
	sp := tr.begin(name, id, parent)
	code, body, err := s.call(ctx, http.MethodPost, "/v1/specs", s.bodies[o.spec])
	tr.end(sp)
	s.posts.Add(1)
	if err != nil {
		return nil, err
	}
	if code != want {
		return nil, fmt.Errorf("POST /v1/specs: status %d, want %d: %s", code, want, bytes.TrimSpace(body))
	}
	var st specReply
	if err := json.Unmarshal(body, &st); err != nil {
		return nil, fmt.Errorf("POST /v1/specs: %w", err)
	}
	if st.Dedup != "" {
		s.dedups.Add(1)
	}
	if st.Status != serve.StatusDone {
		wait := tr.begin("serve.wait", id, parent)
		for st.Status != serve.StatusDone {
			if st.Status == serve.StatusFailed || st.Status == serve.StatusCanceled {
				tr.end(wait)
				return nil, fmt.Errorf("spec %s ended %s", hash, st.Status)
			}
			t := time.NewTimer(pollInterval)
			select {
			case <-ctx.Done():
				t.Stop()
				tr.end(wait)
				return nil, fmt.Errorf("waiting for spec %s: %w", hash, ctx.Err())
			case <-t.C:
			}
			ps := tr.begin("serve.poll", id, wait)
			code, body, err = s.call(ctx, http.MethodGet, "/v1/specs/"+hash, nil)
			tr.end(ps)
			s.polls.Add(1)
			if err == nil && code != http.StatusOK {
				err = fmt.Errorf("GET /v1/specs/%s: status %d", hash, code)
			}
			if err == nil {
				err = json.Unmarshal(body, &st)
			}
			if err != nil {
				tr.end(wait)
				return nil, err
			}
		}
		tr.end(wait)
	}
	rs := tr.begin("serve.result", id, parent)
	code, body, err = s.call(ctx, http.MethodGet, "/v1/specs/"+hash+"/result", nil)
	tr.end(rs)
	if err != nil {
		return nil, err
	}
	if code != http.StatusOK {
		return nil, fmt.Errorf("GET /v1/specs/%s/result after done: status %d: %s", hash, code, bytes.TrimSpace(body))
	}
	return body, nil
}

// sideTrace times, beside the op, the two per-request steps serve does
// on every read that cannot be timed inside the server from here:
// parse, normalize and hash the submitted spec, and encode the result.
func (s *serveSystem) sideTrace(id int, o op, result []byte, tr *tracer) {
	sp := tr.begin("spec.expand", id, -1)
	spec, err := pynamic.ParseSpec(s.bodies[o.spec])
	if err == nil {
		_, err = s.eng.ExpandSpec(spec)
	}
	if err == nil {
		_, err = spec.Canonical()
	}
	tr.end(sp)
	var jr pynamic.JobResult
	if err == nil {
		err = json.Unmarshal(result, &jr)
	}
	if err != nil {
		return
	}
	sp = tr.begin("result.encode", id, -1)
	_, _ = encodeResult(&jr) // encoded before, so it cannot fail now
	tr.end(sp)
}

func (s *serveSystem) call(ctx context.Context, method, path string, body []byte) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, method, s.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// castoreBytes sums the sizes of the content-addressed store's entry
// files (the directory minus the job store).
func (s *serveSystem) castoreBytes() (int64, error) {
	var n int64
	err := filepath.WalkDir(s.dir, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && d.Name() == ".jobstore" {
			return filepath.SkipDir
		}
		if d.IsDir() || path == filepath.Join(s.dir, "MANIFEST") {
			return nil
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		n += info.Size()
		return nil
	})
	return n, err
}

// timedStore wraps the disk job store the server is given and, while a
// tracer is attached, records a span per call, attributed to the op
// that submitted the spec, and the bytes each call appended to the
// write-ahead log.
type timedStore struct {
	jobstore.Store
	dir string
	tr  atomic.Pointer[tracer]

	mu       sync.Mutex
	opOf     map[string]int
	walSize  int64
	walBytes int64
	appends  int64
}

// trace attaches tr and starts a fresh WAL byte count; nil detaches.
func (t *timedStore) trace(tr *tracer) {
	if tr != nil {
		t.mu.Lock()
		t.opOf = map[string]int{}
		t.walSize, t.walBytes, t.appends = t.walFileSize(), 0, 0
		t.mu.Unlock()
	}
	t.tr.Store(tr)
}

// appended is how many bytes the traced calls appended to the WAL.
func (t *timedStore) appended() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.walBytes
}

// bind attributes the store calls for hash to op id.
func (t *timedStore) bind(hash string, id int) {
	if t.tr.Load() == nil {
		return
	}
	t.mu.Lock()
	t.opOf[hash] = id
	t.mu.Unlock()
}

func (t *timedStore) walFileSize() int64 {
	matches, _ := filepath.Glob(filepath.Join(t.dir, "wal.*.log")) // the pattern is valid
	var n int64
	for _, m := range matches {
		if info, err := os.Stat(m); err == nil {
			n += info.Size()
		}
	}
	return n
}

// span times one store call. mutates marks calls that may append a
// WAL record. A call that finds the log shorter than before triggered a
// compaction, which truncated the record it appended; that record is
// counted at the mean size of the appends seen so far.
func (t *timedStore) span(name, hash string, mutates bool) func() {
	tr := t.tr.Load()
	if tr == nil {
		return func() {}
	}
	id := -1
	if hash != "" {
		t.mu.Lock()
		if v, ok := t.opOf[hash]; ok {
			id = v
		}
		t.mu.Unlock()
	}
	sp := tr.begin(name, id, -1)
	return func() {
		tr.end(sp)
		if !mutates {
			return
		}
		size := t.walFileSize()
		t.mu.Lock()
		defer t.mu.Unlock()
		switch {
		case size > t.walSize:
			t.walBytes += size - t.walSize
			t.appends++
		case size < t.walSize && t.appends > 0:
			t.walBytes += size + t.walBytes/t.appends
			t.appends++
		}
		t.walSize = size
	}
}

func (t *timedStore) Put(j jobstore.Job) error {
	defer t.span("jobstore.put", j.Hash, true)()
	return t.Store.Put(j)
}

func (t *timedStore) Get(hash string) (jobstore.Job, bool) {
	defer t.span("jobstore.get", hash, false)()
	return t.Store.Get(hash)
}

func (t *timedStore) List() []jobstore.Job {
	defer t.span("jobstore.list", "", false)()
	return t.Store.List()
}

func (t *timedStore) Claim(node, hash string, now time.Time, ttl time.Duration) (jobstore.Job, error) {
	defer t.span("jobstore.claim", hash, true)()
	return t.Store.Claim(node, hash, now, ttl)
}

func (t *timedStore) Heartbeat(hash, node string, now time.Time, ttl time.Duration) error {
	defer t.span("jobstore.heartbeat", hash, true)()
	return t.Store.Heartbeat(hash, node, now, ttl)
}

func (t *timedStore) Complete(hash, node, status, errMsg string, now time.Time) error {
	defer t.span("jobstore.complete", hash, true)()
	return t.Store.Complete(hash, node, status, errMsg, now)
}
