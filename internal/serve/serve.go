// Package serve is the HTTP serving layer over the public Engine API:
// one shared, long-lived pynamic.Engine handles concurrent requests,
// amortizing workload generation across them through the engine's
// content-hash-keyed workload cache.
//
// Endpoints (JSON over HTTP):
//
//	POST   /v1/specs         submit a declarative run Spec (any kind:
//	                         run, job, matrix, scenario incl. overridden
//	                         knobs, tool); returns {"id": ...} at once.
//	                         The id is the spec's canonical content hash,
//	                         so resubmitting an identical spec joins the
//	                         existing record (dedup:"true") — and when
//	                         the engine has a persistent store
//	                         (-cache-dir), a hash whose result was
//	                         computed by a previous process life or a
//	                         sibling replica is answered done immediately
//	                         from disk (dedup:"store")
//	POST   /v1/jobs          submit a typed JobRequest: it is translated
//	                         into its kind "job" Spec (JobRequest.Spec)
//	                         and admitted exactly like POST /v1/specs
//	GET    /v1/specs         list submitted specs (summaries); GET
//	                         /v1/jobs returns the same listing
//	GET    /v1/specs/{hash}  spec status: resolved knobs, result once done
//	GET    /v1/specs/{hash}/result  the inner canonical result JSON only
//	                         (golden-diff friendly: stable bytes for a
//	                         fixed spec)
//	DELETE /v1/specs/{hash}  cancel a queued or running spec
//	/v1/jobs/{hash}...       aliases of the three /v1/specs/{hash} routes
//	GET    /v1/experiments   the experiment registry (sweeps, ablations,
//	                         scenario catalog)
//	GET    /v1/scenarios     the scenario catalog with typed knobs
//	GET    /v1/metrics       flat counter map: submissions, dedups,
//	                         outcomes, queue depth, engine operation and
//	                         per-phase simulated-time counters, workload
//	                         cache hits/misses (see README.md for the
//	                         catalog)
//	GET    /metrics          Prometheus text exposition: per-route
//	                         request-latency and per-phase engine
//	                         histograms, plus every /v1/metrics counter
//	                         re-exported as a pynamic_-prefixed gauge
//	GET    /healthz          liveness probe
//
// Specs run asynchronously: submission returns 202 with the hash, and
// the client polls GET /v1/specs/{hash} until status is "done" (or
// "failed" / "canceled"). A bounded semaphore caps concurrently
// simulating specs; everything else queues.
//
// Every submission flows through a jobstore.Store: an accepted spec is
// recorded as a queued row before the 202 leaves the server, workers
// claim rows under a heartbeat-renewed lease, and completion is written
// back. With the disk store (-cache-dir) this makes the queue durable —
// a SIGKILLed replica's rows are re-claimed on restart, or by a live
// sibling sharing the directory once the lease expires (see
// internal/jobstore and the steal loop in worker.go). In fleet mode
// (-peers) submissions are first routed to the replica that owns the
// spec hash on the consistent-hash ring, falling back to local
// execution when the owner is unreachable.
//
// Shutdown comes in two strengths: Close cancels every in-flight spec
// immediately, while Drain stops accepting new work (submissions get
// 503) and waits for everything already admitted to finish —
// cmd/pynamic-serve drains on SIGTERM so a redeploy never kills a spec
// mid-simulation. A clean drain also compacts and closes the job
// store's WAL, so a SIGTERM-stopped replica restarts with nothing to
// replay.
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"

	pynamic "repro"
	"repro/internal/fleet"
	"repro/internal/histo"
	"repro/internal/jobstore"
)

// Status values of a submitted spec.
const (
	StatusQueued   = "queued"
	StatusRunning  = "running"
	StatusDone     = "done"
	StatusFailed   = "failed"
	StatusCanceled = "canceled"
)

// JobRequest is the POST /v1/jobs body: a typed shorthand for a kind
// "job" Spec (its Spec method is the mapping). The zero value of every field
// is a usable default; the workload is the paper's LLNL model scaled
// by Scale (DSO counts) and FuncsDiv (functions per DSO).
type JobRequest struct {
	// Mode is the build mode: "vanilla" (default), "link", "link-bind".
	Mode string `json:"mode"`
	// Tasks is the MPI job size (default 32).
	Tasks int `json:"tasks"`
	// Ranks is how many of the job's tasks to simulate (0/omitted = 1,
	// the legacy rank-0 extrapolation; set it to Tasks for every rank).
	Ranks int `json:"ranks"`
	// Seed is the generator/job seed (default: the model's paper seed).
	Seed uint64 `json:"seed"`
	// Scale divides the LLNL model's DSO counts (default 1).
	Scale int `json:"scale"`
	// FuncsDiv divides the per-DSO function counts (default 1).
	FuncsDiv int `json:"funcs_div"`
	// Placement is "block" (default) or "round-robin".
	Placement string `json:"placement"`
	// MPITest enables the pyMPI functionality test phase.
	MPITest bool `json:"mpi_test"`
	// Detailed selects the line-accurate memory model (reduce Scale!).
	Detailed bool `json:"detailed"`
	// Coverage is the fraction of entry chains visited (0 = all).
	Coverage float64 `json:"coverage"`
	// Heterogeneity knobs (see pynamic.JobConfig).
	RankSkew         float64 `json:"rank_skew"`
	StragglerFrac    float64 `json:"straggler_frac"`
	StragglerIOScale float64 `json:"straggler_io_scale"`
	WarmNodeFrac     float64 `json:"warm_node_frac"`
}

// Spec translates the request into the kind "job" Spec that POST
// /v1/jobs admits, so a job's id is that spec's canonical hash. Ranks
// 0 becomes 1: a JobRequest's 0 means the legacy single rank, while a
// Spec's 0 means every task. Range checks are left to the spec's
// validation.
func (req JobRequest) Spec() pynamic.Spec {
	ranks := req.Ranks
	if ranks == 0 {
		ranks = 1
	}
	backend := ""
	if req.Detailed {
		backend = "detailed"
	}
	return pynamic.Spec{
		Version:  pynamic.SpecVersion,
		Kind:     pynamic.SpecJob,
		Seed:     req.Seed,
		Workload: &pynamic.WorkloadSpec{ScaleDiv: req.Scale, FuncsDiv: req.FuncsDiv},
		Build:    &pynamic.BuildSpec{Mode: req.Mode, Backend: backend},
		Topology: &pynamic.TopologySpec{
			Tasks:            req.Tasks,
			Ranks:            ranks,
			Placement:        req.Placement,
			MPITest:          req.MPITest,
			Coverage:         req.Coverage,
			RankSkew:         req.RankSkew,
			StragglerFrac:    req.StragglerFrac,
			StragglerIOScale: req.StragglerIOScale,
			WarmNodeFrac:     req.WarmNodeFrac,
		},
	}
}

// SpecStatus is the GET /v1/specs/{hash} body. Knobs carries the
// resolved knob set a scenario spec actually ran — the default grid,
// or the single point the spec's overrides produced — closing the gap
// where /v1/scenarios advertised knob grids the service could not run
// with non-default values.
type SpecStatus struct {
	// ID is the spec's canonical content hash (the job key).
	ID     string       `json:"id"`
	Status string       `json:"status"`
	Kind   string       `json:"kind"`
	Spec   pynamic.Spec `json:"spec"`
	// Knobs is the resolved scenario grid (scenario kind only).
	Knobs  []pynamic.Params    `json:"knobs,omitempty"`
	Error  string              `json:"error,omitempty"`
	Result *pynamic.SpecResult `json:"result,omitempty"`
}

// record is one submitted spec's server-side state.
type record struct {
	id     string
	spec   pynamic.Spec
	kind   string
	knobs  []pynamic.Params
	cancel context.CancelFunc

	mu         sync.Mutex
	status     string
	err        string
	specResult *pynamic.SpecResult
}

func (r *record) specSnapshot() SpecStatus {
	r.mu.Lock()
	defer r.mu.Unlock()
	return SpecStatus{
		ID: r.id, Status: r.status, Kind: r.kind, Spec: r.spec,
		Knobs: r.knobs, Error: r.err, Result: r.specResult,
	}
}

// statusOf returns the record's current status without building a full
// snapshot.
func (r *record) statusOf() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.status
}

// Options configures a Server.
type Options struct {
	// MaxConcurrent caps jobs simulating at once (≤0 = 2). Submission
	// above the cap queues; the queue drains in submission order per
	// freed slot.
	MaxConcurrent int
	// MaxHistory caps how many finished jobs (done/failed/canceled)
	// are retained for polling (≤0 = 1000). The oldest finished
	// records are evicted first; queued and running jobs are never
	// evicted. Every record's row also lives in the job store, so a
	// pruned spec's status remains queryable.
	MaxHistory int
	// NodeID identifies this replica in the shared job store (claims,
	// leases, WAL file names). Empty = "solo".
	NodeID string
	// Store is the job store backing spec submissions. Nil = a fresh
	// in-memory store (solo serving; nothing survives the process).
	Store jobstore.Store
	// LeaseTTL is how long a claimed job may go without a heartbeat
	// before siblings may steal it (≤0 = 15s).
	LeaseTTL time.Duration
	// StealInterval is how often the steal loop scans the store for
	// expired leases and orphaned queued rows (≤0 = 1s).
	StealInterval time.Duration
	// Histograms receives per-request latencies and is rendered at
	// GET /metrics. Nil = a private registry (the endpoint still
	// works; pass a shared registry to also see engine phase
	// histograms recorded via pynamic.WithPhaseObserver).
	Histograms *histo.Registry
	// Fleet, when non-nil, enables hash-ring routing of submissions
	// across replicas. Tests that learn their URLs only after the
	// listener starts can instead call UseFleet after New.
	Fleet *fleet.Fleet
}

// Server routes the v1 API onto one shared Engine.
type Server struct {
	eng        *pynamic.Engine
	base       context.Context
	stop       context.CancelFunc
	sem        chan struct{}
	maxHistory int

	// Fleet-mode state: node identity, the job store every spec flows
	// through, lease/steal timing, and the latency histograms.
	node          string
	store         jobstore.Store
	leaseTTL      time.Duration
	stealInterval time.Duration
	hist          *histo.Registry
	stealStop     chan struct{}
	stealDone     chan struct{}
	shutdownOnce  sync.Once

	// ctr is the /v1/metrics counter set; workers tracks worker
	// goroutines so Drain can wait them out.
	ctr     counters
	workers sync.WaitGroup

	// mu guards the record store AND the admission/drain handshake:
	// draining flips under it, and every workers.Add happens under it,
	// so a submission is either fully admitted before Drain's Wait or
	// refused — never half-admitted. Counter bumps that must stay
	// consistent with record state (submissions, dedups, finishes)
	// also commit under mu; Metrics snapshots under it. The fleet
	// pointer is read under it too (UseFleet may arrive after New).
	// Lock order is s.mu before record.mu, never the reverse.
	mu       sync.Mutex
	draining bool               //pynamic:guardedby mu
	fleet    *fleet.Fleet       //pynamic:guardedby mu
	jobs     map[string]*record //pynamic:guardedby mu
	order    []string           //pynamic:guardedby mu
	// terminal counts the records in jobs that are done, failed or
	// canceled: raised where a finish is counted, lowered where a
	// finished record is deleted, so pruneHistory need not recount.
	terminal int //pynamic:guardedby mu
}

// New returns a Server over eng. If the store holds recoverable work
// (a durable store reopened after a crash), it is adopted before New
// returns — Recovered reports how much, for the startup log. Close
// releases the server's background work.
func New(eng *pynamic.Engine, opts Options) *Server {
	if opts.MaxConcurrent <= 0 {
		opts.MaxConcurrent = 2
	}
	if opts.MaxHistory <= 0 {
		opts.MaxHistory = 1000
	}
	if opts.NodeID == "" {
		opts.NodeID = "solo"
	}
	if opts.Store == nil {
		opts.Store = jobstore.NewMemory()
	}
	if opts.LeaseTTL <= 0 {
		opts.LeaseTTL = 15 * time.Second
	}
	if opts.StealInterval <= 0 {
		opts.StealInterval = time.Second
	}
	if opts.Histograms == nil {
		opts.Histograms = histo.NewRegistry()
	}
	base, stop := context.WithCancel(context.Background()) //pynamic:allow ctxflow server-lifetime root; Shutdown cancels it
	s := &Server{
		eng:           eng,
		base:          base,
		stop:          stop,
		sem:           make(chan struct{}, opts.MaxConcurrent),
		maxHistory:    opts.MaxHistory,
		node:          opts.NodeID,
		store:         opts.Store,
		leaseTTL:      opts.LeaseTTL,
		stealInterval: opts.StealInterval,
		hist:          opts.Histograms,
		stealStop:     make(chan struct{}),
		stealDone:     make(chan struct{}),
		fleet:         opts.Fleet,
		jobs:          make(map[string]*record),
	}
	s.hist.Register(reqHistName,
		"pynamic-serve request latency by route class, seconds", "route", histo.DefBuckets)
	s.recoverFromStore()
	go s.stealLoop()
	return s
}

// Close cancels every in-flight job and stops accepting work. The
// steal loop is stopped; the job store is left open so canceled
// workers can still write their terminal status (the process exit or
// a later Drain closes it).
func (s *Server) Close() {
	s.stop()
	s.stopSteal()
}

// Drain switches the server into draining mode — new submissions are
// refused with 503 — and waits until every already-admitted spec has
// reached a terminal status. On a clean drain the steal loop is
// stopped and the job store is compacted and closed, so a SIGTERM-
// stopped replica never leaves a replay-pending WAL. It returns nil on
// a clean drain, or ctx.Err() if ctx expires first (in-flight work
// keeps running with the store open; the caller decides whether to
// escalate to Close). Drain is idempotent and safe to call
// concurrently.
func (s *Server) Drain(ctx context.Context) error {
	// Flipping the flag under s.mu orders it against admission: once
	// this section ends, every in-flight submission has either already
	// called workers.Add (so Wait below covers it) or will observe
	// draining inside its own locked section and refuse. Without this
	// mutual exclusion a submission racing SIGTERM could Add after
	// Wait started — orphaning admitted work past a "clean" drain, or
	// tripping the WaitGroup's add-while-waiting reuse rule.
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	done := make(chan struct{})
	go func() {
		s.workers.Wait()
		close(done)
	}()
	select {
	case <-done:
		s.stopSteal()
		// Every admitted worker has written its terminal status; fold
		// the WAL into a final snapshot and release the log.
		_ = s.store.Close()
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// stopSteal shuts the steal loop down exactly once and waits for it.
func (s *Server) stopSteal() {
	s.shutdownOnce.Do(func() { close(s.stealStop) })
	<-s.stealDone
}

// UseFleet attaches (or replaces) the hash-ring router. It exists
// apart from Options.Fleet because httptest servers only learn their
// own URL after the listener starts; production wiring passes
// Options.Fleet.
func (s *Server) UseFleet(f *fleet.Fleet) {
	s.mu.Lock()
	s.fleet = f
	s.mu.Unlock()
}

// fleetRef reads the current fleet router under the lock.
func (s *Server) fleetRef() *fleet.Fleet {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.fleet
}

// Recovered reports how many non-terminal store rows this server
// adopted at construction — the number cmd/pynamic-serve logs in its
// recovery startup line.
func (s *Server) Recovered() int {
	return int(s.ctr.storeRecovered.Load())
}

// Handler returns the HTTP handler for the v1 API, wrapped in the
// request-latency histogram middleware.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	mux.HandleFunc("/v1/jobs", s.handleSubmissions(decodeJobRequest))
	mux.HandleFunc("/v1/jobs/", s.handleSpec)
	mux.HandleFunc("/v1/specs", s.handleSubmissions(decodeSpec))
	mux.HandleFunc("/v1/specs/", s.handleSpec)
	mux.HandleFunc("/v1/experiments", s.handleExperiments)
	mux.HandleFunc("/v1/scenarios", s.handleScenarios)
	mux.HandleFunc("/v1/metrics", s.handleMetrics)
	mux.HandleFunc("/metrics", s.handlePromMetrics)
	return s.observeRequests(mux)
}

// observeRequests records every request's wall latency into the
// request histogram, labeled by coarse route class.
//
//pynamic:nondeterministic request-latency histogram is telemetry, not canonical bytes
func (s *Server) observeRequests(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		next.ServeHTTP(w, r)
		s.hist.Observe(reqHistName, routeClass(r.URL.Path), time.Since(start).Seconds())
	})
}

// routeClass buckets request paths into a bounded label set, so the
// histogram's cardinality cannot grow with job ids.
func routeClass(path string) string {
	switch {
	case path == "/healthz":
		return "healthz"
	case path == "/v1/jobs":
		return "jobs"
	case strings.HasPrefix(path, "/v1/jobs/"):
		return "job"
	case path == "/v1/specs":
		return "specs"
	case strings.HasPrefix(path, "/v1/specs/"):
		return "spec"
	case path == "/v1/metrics", path == "/metrics":
		return "metrics"
	default:
		return "other"
	}
}

// refuseDraining writes the 503 a draining server answers submissions
// with, and reports whether the request was refused. It is the cheap
// pre-parse check; admission paths re-check under the same lock they
// admit in (see rejectDrainingLocked).
func (s *Server) refuseDraining(w http.ResponseWriter) bool {
	s.mu.Lock()
	draining := s.draining
	if draining {
		s.ctr.drainRejected.Add(1)
	}
	s.mu.Unlock()
	if !draining {
		return false
	}
	writeError(w, http.StatusServiceUnavailable, "server is draining; not accepting new work")
	return true
}

// rejectDrainingLocked finalizes a refusal discovered inside an
// admission critical section: bumps the counter, releases s.mu, and
// writes the 503. Caller must hold s.mu and must not touch it after.
func (s *Server) rejectDrainingLocked(w http.ResponseWriter) {
	s.ctr.drainRejected.Add(1)
	s.mu.Unlock()
	writeError(w, http.StatusServiceUnavailable, "server is draining; not accepting new work")
}

// handleSubmissions serves a submission collection: POST submits the
// body decode reads, GET lists every record.
func (s *Server) handleSubmissions(decode decodeFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		switch r.Method {
		case http.MethodPost:
			s.submit(w, r, decode)
		case http.MethodGet:
			s.list(w)
		default:
			writeError(w, http.StatusMethodNotAllowed, "use POST to submit or GET to list")
		}
	}
}

// decodeFunc turns a submission body into the Spec to admit, plus the
// spec document to forward when the hash's ring owner is another
// replica (fleet.Forward posts it to the owner's /v1/specs).
type decodeFunc func(body []byte) (spec pynamic.Spec, doc []byte, err error)

// decodeSpec reads a POST /v1/specs body: the document is the spec.
func decodeSpec(body []byte) (pynamic.Spec, []byte, error) {
	spec, err := pynamic.ParseSpec(body)
	return spec, body, err
}

// decodeJobRequest reads a POST /v1/jobs body and translates it into
// its kind "job" Spec.
func decodeJobRequest(body []byte) (pynamic.Spec, []byte, error) {
	var req JobRequest
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return pynamic.Spec{}, nil, fmt.Errorf("bad request body: %w", err)
	}
	spec := req.Spec()
	doc, err := json.Marshal(spec)
	if err != nil {
		return pynamic.Spec{}, nil, fmt.Errorf("encode translated spec: %w", err)
	}
	return spec, doc, nil
}

// submit is the one admission path behind POST /v1/specs and POST
// /v1/jobs. It validates and resolves the decoded Spec, registers it
// under its canonical hash, and launches its worker. Submitting a spec
// whose hash matches a live record joins that record instead of
// duplicating the work (dedup:"true"), and a hash whose result is
// already in the engine's persistent store — computed by a previous
// process life or a sibling replica sharing the cache directory — is
// answered as an immediately-done record without running anything
// (dedup:"store"). The hash IS the job key, exactly like the engine's
// content-keyed caches. A failed or canceled record is replaced so a
// retry can succeed.
func (s *Server) submit(w http.ResponseWriter, r *http.Request, decode decodeFunc) {
	if s.refuseDraining(w) {
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<20))
	if err != nil {
		writeError(w, http.StatusBadRequest, "read body: "+err.Error())
		return
	}
	spec, doc, err := decode(body)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	exp, err := s.eng.ExpandSpec(spec)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	canon, err := spec.Canonical()
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}

	// Live-record dedup first: no disk involved, and the whole
	// decision — status snapshot, counter bumps, reply choice — sits
	// in one critical section. Finishes also commit under s.mu, so a
	// record finishing concurrently can no longer slip between the
	// snapshot and the counts.
	s.mu.Lock()
	if s.draining {
		s.rejectDrainingLocked(w)
		return
	}
	if s.replyLiveSpecLocked(w, exp.Hash) {
		return
	}
	s.mu.Unlock()

	// Persistent-store dedup: the disk read stays outside the lock.
	stored := s.eng.LookupSpecResult(exp.Hash)

	// Fleet routing: a spec another replica owns on the hash ring is
	// forwarded there (once — the marker header stops a second hop),
	// unless a local answer is already in hand. An unreachable owner
	// degrades to local execution; lease stealing reconciles any
	// duplicate later, and content-addressed results make that safe.
	if fl := s.fleetRef(); stored == nil && fl != nil &&
		!fl.Owns(exp.Hash) && r.Header.Get(fleet.ForwardedHeader) == "" {
		owner := fl.Owner(exp.Hash)
		if res, err := fl.Forward(r.Context(), owner, doc); err == nil {
			s.ctr.fleetForwarded.Add(1)
			relayResponse(w, res)
			return
		}
		s.ctr.fleetForwardFallback.Add(1)
	}

	s.mu.Lock()
	if s.draining {
		s.rejectDrainingLocked(w)
		return
	}
	// Re-check: a concurrent submitter may have registered this hash
	// while the lock was dropped for the store read.
	if s.replyLiveSpecLocked(w, exp.Hash) {
		return
	}
	if stored != nil {
		// Register a terminal record so GET /v1/specs/{hash} and
		// /result serve the stored bytes exactly as if this process
		// had computed them. It counts as done at registration — the
		// record reached terminal state, a worker just never existed.
		rec := &record{
			id:         exp.Hash,
			spec:       spec,
			kind:       exp.Kind,
			knobs:      exp.Grid,
			cancel:     func() {},
			status:     StatusDone,
			specResult: stored,
		}
		s.jobs[rec.id] = rec
		s.order = append(s.order, rec.id)
		s.ctr.specsSubmitted.Add(1)
		s.ctr.specsStoreDeduped.Add(1)
		s.countFinishLocked(StatusDone)
		s.mu.Unlock()
		s.pruneHistory()
		writeJSON(w, http.StatusOK, map[string]string{
			"id": rec.id, "status": StatusDone, "dedup": "store",
		})
		return
	}
	ctx, cancel := context.WithCancel(s.base)
	rec := &record{
		id:     exp.Hash,
		spec:   spec,
		kind:   exp.Kind,
		knobs:  exp.Grid,
		cancel: cancel,
		status: StatusQueued,
	}
	s.jobs[rec.id] = rec
	s.order = append(s.order, rec.id)
	s.ctr.specsSubmitted.Add(1)
	s.workers.Add(1)
	s.mu.Unlock()

	// The row is durable before the 202 leaves: from here a SIGKILL
	// cannot lose the submission — restart recovery or a sibling's
	// steal loop re-claims it. (If the same hash already has a row —
	// e.g. a sibling replica accepted it first — Put is a no-op and
	// the worker's Claim resolves who runs it.)
	if err := s.store.Put(jobstore.Job{Hash: rec.id, Spec: canon, Submitted: time.Now().UnixNano()}); err != nil { //pynamic:nondeterministic lease/heartbeat clock: liveness, not canonical bytes
		s.mu.Lock()
		rec.mu.Lock()
		rec.status, rec.err = StatusFailed, "jobstore: "+err.Error()
		rec.mu.Unlock()
		s.countFinishLocked(StatusFailed)
		s.mu.Unlock()
		s.workers.Done()
		cancel()
		writeError(w, http.StatusInternalServerError, "job store rejected submission: "+err.Error())
		return
	}

	go s.runSpec(ctx, rec)
	writeJSON(w, http.StatusAccepted, map[string]string{"id": rec.id, "status": StatusQueued})
}

// relayResponse copies a forwarded owner's verdict to the client.
func relayResponse(w http.ResponseWriter, res fleet.ForwardResult) {
	if res.ContentType != "" {
		w.Header().Set("Content-Type", res.ContentType)
	}
	w.WriteHeader(res.StatusCode)
	w.Write(res.Body)
}

// replyLiveSpecLocked answers a spec submission from an existing live
// record for hash, bumping the submission and dedup counters in the
// same critical section the status snapshot was taken in. It reports
// whether it replied (having released s.mu); a dead (failed/canceled)
// record is dropped for replacement and false is returned with s.mu
// still held.
func (s *Server) replyLiveSpecLocked(w http.ResponseWriter, hash string) bool {
	prev, ok := s.jobs[hash]
	if !ok {
		return false
	}
	st := prev.statusOf()
	if st == StatusFailed || st == StatusCanceled {
		s.dropDeadLocked(hash)
		return false
	}
	s.ctr.specsSubmitted.Add(1)
	s.ctr.specsDeduped.Add(1)
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]string{
		"id": hash, "status": st, "dedup": "true",
	})
	return true
}

// countFinishLocked counts one record's finish: its outcome counter
// and the terminal count (caller holds s.mu).
func (s *Server) countFinishLocked(status string) {
	s.ctr.countFinish(status)
	s.terminal++
}

// dropDeadLocked deletes a failed or canceled record so a new one can
// replace it, dropping its order entry so the id is not listed twice
// (caller holds s.mu).
func (s *Server) dropDeadLocked(id string) {
	delete(s.jobs, id)
	s.terminal--
	for i, have := range s.order {
		if have == id {
			s.order = append(s.order[:i], s.order[i+1:]...)
			return
		}
	}
}

// runSpec is the per-spec worker: semaphore slot, store claim (or
// remote await when another replica holds the job), RunSpecCtx,
// outcome write-back. The execution machinery lives in worker.go.
func (s *Server) runSpec(ctx context.Context, rec *record) {
	defer s.workers.Done()
	defer rec.cancel()
	select {
	case s.sem <- struct{}{}:
		defer func() { <-s.sem }()
	case <-ctx.Done():
		s.finishSpec(rec, StatusCanceled, "canceled while queued", nil)
		return
	}
	_, err := s.store.Claim(s.node, rec.id, time.Now(), s.leaseTTL) //pynamic:nondeterministic lease/heartbeat clock: liveness, not canonical bytes
	if errors.Is(err, jobstore.ErrNotClaimable) {
		// Another replica holds the job (or already finished it):
		// mirror its outcome instead of re-executing.
		s.awaitRemote(ctx, rec)
		return
	}
	if err != nil && !errors.Is(err, jobstore.ErrNotFound) {
		s.finishSpec(rec, StatusFailed, "jobstore claim: "+err.Error(), nil)
		return
	}
	s.execClaimed(ctx, rec)
}

// handleSpec serves /v1/specs/{hash} and /v1/specs/{hash}/result, and
// the same routes under /v1/jobs/. A hash with no live record falls
// back to the shared job store (the row may have been submitted to a
// sibling, or pruned from local history), and then to a proxied lookup
// on the hash's ring owner.
func (s *Server) handleSpec(w http.ResponseWriter, r *http.Request) {
	rest, ok := strings.CutPrefix(r.URL.Path, "/v1/specs/")
	if !ok {
		rest = strings.TrimPrefix(r.URL.Path, "/v1/jobs/")
	}
	id, sub, _ := strings.Cut(rest, "/")
	s.mu.Lock()
	rec := s.jobs[id]
	s.mu.Unlock()
	if rec == nil {
		s.handleSpecFromStore(w, r, id, sub)
		return
	}
	switch {
	case sub == "" && r.Method == http.MethodGet:
		writeJSON(w, http.StatusOK, rec.specSnapshot())
	case sub == "" && r.Method == http.MethodDelete:
		rec.cancel()
		writeJSON(w, http.StatusOK, map[string]string{"id": id, "status": rec.statusOf()})
	case sub == "result" && r.Method == http.MethodGet:
		st := rec.specSnapshot()
		if st.Status != StatusDone {
			writeError(w, http.StatusConflict, "spec "+id+" is "+st.Status+", not done")
			return
		}
		if st.Result == nil {
			// Done mirrored from a sibling without a shared cache
			// directory: the bytes live on the owner, not here.
			s.serveRemoteResult(w, r, id)
			return
		}
		// The inner canonical payload: for kind "job", the JobResult
		// alone (the CI smoke diffs it against the committed golden).
		writeJSON(w, http.StatusOK, st.Result.Payload())
	default:
		writeError(w, http.StatusMethodNotAllowed, "unsupported spec operation")
	}
}

// handleSpecFromStore answers spec lookups that have no live local
// record from the shared job store, keeping a spec's status and result
// addressable on every replica (and after history pruning or restart).
func (s *Server) handleSpecFromStore(w http.ResponseWriter, r *http.Request, id, sub string) {
	j, ok := s.store.Get(id)
	if !ok {
		// Unknown here entirely. With a fleet, the ring owner may still
		// know it (fleets without a shared store directory).
		if fl := s.fleetRef(); fl != nil && !fl.Owns(id) &&
			r.Method == http.MethodGet && r.Header.Get(fleet.ForwardedHeader) == "" {
			if res, err := fl.Fetch(r.Context(), fl.Owner(id), r.URL.Path); err == nil {
				relayResponse(w, res)
				return
			}
		}
		writeError(w, http.StatusNotFound, "no spec "+id)
		return
	}
	switch {
	case sub == "" && r.Method == http.MethodGet:
		st := SpecStatus{ID: id, Status: j.Status, Error: j.Error}
		if spec, err := pynamic.ParseSpec(j.Spec); err == nil {
			st.Spec = spec
			if exp, xerr := s.eng.ExpandSpec(spec); xerr == nil {
				st.Kind, st.Knobs = exp.Kind, exp.Grid
			}
		}
		if j.Status == StatusDone {
			st.Result = s.eng.LookupSpecResult(id)
		}
		writeJSON(w, http.StatusOK, st)
	case sub == "" && r.Method == http.MethodDelete:
		if j.Status == jobstore.StatusQueued {
			// Nobody claimed it yet; cancel directly in the store.
			_ = s.store.Complete(id, s.node, StatusCanceled, "canceled by client", time.Now()) //pynamic:nondeterministic lease/heartbeat clock: liveness, not canonical bytes
		}
		if cur, stillThere := s.store.Get(id); stillThere {
			j = cur
		}
		writeJSON(w, http.StatusOK, map[string]string{"id": id, "status": j.Status})
	case sub == "result" && r.Method == http.MethodGet:
		if j.Status != StatusDone {
			writeError(w, http.StatusConflict, "spec "+id+" is "+j.Status+", not done")
			return
		}
		if res := s.eng.LookupSpecResult(id); res != nil {
			writeJSON(w, http.StatusOK, res.Payload())
			return
		}
		s.serveRemoteResult(w, r, id)
	default:
		writeError(w, http.StatusMethodNotAllowed, "unsupported spec operation")
	}
}

// serveRemoteResult proxies a done spec's result bytes from its ring
// owner when they are not readable locally.
func (s *Server) serveRemoteResult(w http.ResponseWriter, r *http.Request, id string) {
	if fl := s.fleetRef(); fl != nil && !fl.Owns(id) && r.Header.Get(fleet.ForwardedHeader) == "" {
		if res, err := fl.Fetch(r.Context(), fl.Owner(id), "/v1/specs/"+id+"/result"); err == nil {
			relayResponse(w, res)
			return
		}
	}
	writeError(w, http.StatusNotFound, "spec "+id+" is done but its result is not available on this replica")
}

// pruneHistory evicts the oldest finished jobs beyond the history
// cap. Queued and running jobs are never evicted. Under the cap it
// reads only the terminal count; over it, it walks s.order from the
// front only as far as the finished records it evicts.
func (s *Server) pruneHistory() {
	s.mu.Lock()
	defer s.mu.Unlock()
	kept := s.order[:0]
	i := 0
	for ; i < len(s.order) && s.terminal > s.maxHistory; i++ {
		id := s.order[i]
		if st := s.jobs[id].statusOf(); st == StatusQueued || st == StatusRunning {
			kept = append(kept, id)
			continue
		}
		delete(s.jobs, id)
		s.terminal--
	}
	// The live records walked past keep their order, right ahead of
	// the part not walked; the evicted prefix is cut off.
	start := i - len(kept)
	copy(s.order[start:i], kept)
	clear(s.order[:start])
	s.order = s.order[start:]
}

// list writes spec summaries in submission order.
func (s *Server) list(w http.ResponseWriter) {
	s.mu.Lock()
	recs := make([]*record, 0, len(s.order))
	for _, id := range s.order {
		recs = append(recs, s.jobs[id])
	}
	s.mu.Unlock()
	type summary struct {
		ID     string `json:"id"`
		Status string `json:"status"`
		Kind   string `json:"kind,omitempty"`
	}
	out := make([]summary, 0, len(recs))
	for _, rec := range recs {
		out = append(out, summary{ID: rec.id, Status: rec.statusOf(), Kind: rec.kind})
	}
	writeJSON(w, http.StatusOK, map[string]any{"specs": out})
}

func (s *Server) handleExperiments(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	infos := s.eng.Experiments()
	writeJSON(w, http.StatusOK, map[string]any{"experiments": infos})
}

func (s *Server) handleScenarios(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	// The public catalog with typed knobs: a client can take any entry,
	// build {"version":1,"kind":"scenario","scenario":{"name":...,
	// "knobs":{...}}} with overridden values, and POST it to /v1/specs.
	writeJSON(w, http.StatusOK, map[string]any{"scenarios": pynamic.Scenarios()})
}

// writeJSON writes v as two-space-indented JSON with a trailing
// newline — the same canonical form the golden files store.
func writeJSON(w http.ResponseWriter, code int, v any) {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	w.Write(append(data, '\n'))
}

func writeError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, map[string]string{"error": msg})
}
