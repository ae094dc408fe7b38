package serve

import (
	"context"
	"errors"
	"time"

	pynamic "repro"
	"repro/internal/jobstore"
)

// remotePollInterval paces awaitRemote's store polling while another
// replica executes a job this server also accepted.
const remotePollInterval = 100 * time.Millisecond

// finishSpec commits a spec record's terminal state: status transition
// and outcome counter atomically under s.mu (lock order s.mu →
// rec.mu), so a metrics scrape or a dedup decision never observes a
// terminal record whose finish is uncounted. The job store write
// happens after, outside the lock — it is I/O, and a lost update there
// only costs a sibling a redundant (content-addressed, idempotent)
// re-execution.
func (s *Server) finishSpec(rec *record, status, errMsg string, res *pynamic.SpecResult) {
	s.mu.Lock()
	rec.mu.Lock()
	rec.status, rec.err, rec.specResult = status, errMsg, res
	rec.mu.Unlock()
	s.countFinishLocked(status)
	s.mu.Unlock()
	s.pruneHistory()
	// Late completion races (the job was stolen and finished elsewhere)
	// surface as ErrNotOwner or a done-absorbing no-op; both are fine.
	_ = s.store.Complete(rec.id, s.node, status, errMsg, time.Now()) //pynamic:nondeterministic lease/heartbeat clock: liveness, not canonical bytes
}

// execClaimed runs a spec this server holds the store claim for:
// heartbeat the lease for as long as the simulation runs, execute, and
// write the outcome back to record and store.
func (s *Server) execClaimed(ctx context.Context, rec *record) {
	rec.mu.Lock()
	rec.status = StatusRunning
	rec.mu.Unlock()

	stopHB := s.renewLease(rec.id)
	res, err := s.eng.RunSpecCtx(ctx, rec.spec)
	stopHB()
	switch {
	case errors.Is(err, pynamic.ErrCanceled):
		s.finishSpec(rec, StatusCanceled, err.Error(), nil)
	case err != nil:
		s.finishSpec(rec, StatusFailed, err.Error(), nil)
	default:
		s.finishSpec(rec, StatusDone, "", res)
	}
}

// renewLease heartbeats this node's store claim on hash every
// leaseTTL/3 until the returned stop function is called; stop returns
// once the renewer has exited.
func (s *Server) renewLease(hash string) (stop func()) {
	quit := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		t := time.NewTicker(s.leaseTTL / 3)
		defer t.Stop()
		for {
			select {
			case <-quit:
				return
			case <-t.C:
				// A heartbeat rejection means the lease expired and the
				// job was stolen; keep running anyway — done-dominance
				// and content-addressed results make the race harmless.
				_ = s.store.Heartbeat(hash, s.node, time.Now(), s.leaseTTL) //pynamic:nondeterministic lease/heartbeat clock: liveness, not canonical bytes
			}
		}
	}()
	return func() {
		close(quit)
		<-done
	}
}

// awaitRemote mirrors a job another replica is executing: poll the
// shared store until the row turns terminal, then adopt its outcome —
// or steal the claim ourselves the moment the owner's lease expires.
func (s *Server) awaitRemote(ctx context.Context, rec *record) {
	t := time.NewTicker(remotePollInterval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			s.finishSpec(rec, StatusCanceled, "canceled while awaiting remote execution", nil)
			return
		case <-t.C:
		}
		j, ok := s.store.Get(rec.id)
		if !ok {
			s.finishSpec(rec, StatusFailed, "job vanished from store during remote execution", nil)
			return
		}
		if j.Terminal() {
			var res *pynamic.SpecResult
			if j.Status == StatusDone {
				// Shared cache directory: the owner's persisted result is
				// readable here, byte-identical. Without one, the record
				// finishes done with no local payload and /result proxies
				// to the owner.
				res = s.eng.LookupSpecResult(rec.id)
			}
			s.finishSpec(rec, j.Status, j.Error, res)
			return
		}
		if _, err := s.store.Claim(s.node, rec.id, time.Now(), s.leaseTTL); err == nil { //pynamic:nondeterministic lease/heartbeat clock: liveness, not canonical bytes
			// The owner died mid-job: its lease lapsed and the claim is
			// ours now. Counted as a steal — this is the takeover path.
			s.ctr.fleetSteals.Add(1)
			s.execClaimed(ctx, rec)
			return
		}
	}
}

// claimEligible decides whether the steal loop (or startup recovery)
// may take a store row this server has no live record for. Running
// rows qualify once their lease expires (or if this very node holds
// the claim — a crashed previous life). Queued rows qualify
// immediately when no fleet is configured or this node owns the hash
// on the ring; a non-owner waits out a grace period of two lease TTLs
// so it only picks up queued work whose owner has genuinely stopped
// claiming it.
func (s *Server) claimEligible(j jobstore.Job, now time.Time) bool {
	switch j.Status {
	case jobstore.StatusRunning:
		return j.Owner == s.node || now.UnixNano() >= j.LeaseExpiry
	case jobstore.StatusQueued:
		fl := s.fleetRef()
		if fl == nil || fl.Owns(j.Hash) {
			return true
		}
		return now.Sub(time.Unix(0, j.Updated)) >= 2*s.leaseTTL
	default:
		return false
	}
}

// stealLoop periodically drains the store of claimable rows nobody
// here is working on: expired leases from crashed or partitioned
// replicas, and orphaned queued rows. It exits when the server closes
// or finishes draining.
func (s *Server) stealLoop() {
	defer close(s.stealDone)
	t := time.NewTicker(s.stealInterval)
	defer t.Stop()
	for {
		select {
		case <-s.stealStop:
			return
		case <-s.base.Done():
			return
		case <-t.C:
			s.stealOnce()
		}
	}
}

// stealOnce scans the store once and adopts every eligible row. Also
// the recovery pass New runs synchronously, with recover=true so
// adopted rows count as recovered rather than stolen.
func (s *Server) stealOnce() { s.adoptClaimable(false) }

func (s *Server) recoverFromStore() { s.adoptClaimable(true) }

func (s *Server) adoptClaimable(recovering bool) {
	now := time.Now() //pynamic:nondeterministic lease/heartbeat clock: liveness, not canonical bytes
	for _, j := range s.store.List() {
		if j.Terminal() || !s.claimEligible(j, now) {
			continue
		}
		s.mu.Lock()
		if s.draining {
			s.mu.Unlock()
			return
		}
		if prev, ok := s.jobs[j.Hash]; ok {
			st := prev.statusOf()
			if st != StatusFailed && st != StatusCanceled {
				// A live local worker owns this hash (it may simply still
				// be waiting for a semaphore slot), or the record is done
				// and its store Complete has not landed yet. Done is
				// final, as in replyLiveSpecLocked; not ours to steal.
				s.mu.Unlock()
				continue
			}
			// Failed or canceled local record over a non-terminal store
			// row: a previous attempt here failed but the row was
			// re-queued (or stolen and re-queued elsewhere). Replace the
			// dead record.
			s.dropDeadLocked(j.Hash)
		}
		s.mu.Unlock()

		prevOwner := j.Owner
		claimed, err := s.store.Claim(s.node, j.Hash, now, s.leaseTTL)
		if err != nil {
			continue // lost the race to a sibling; its problem now
		}
		spec, perr := pynamic.ParseSpec(claimed.Spec)
		if perr != nil {
			// A row whose spec bytes no longer parse can never run; fail
			// it so it stops circulating.
			_ = s.store.Complete(j.Hash, s.node, StatusFailed, "recovered spec unparseable: "+perr.Error(), time.Now()) //pynamic:nondeterministic lease/heartbeat clock: liveness, not canonical bytes
			continue
		}
		exp, xerr := s.eng.ExpandSpec(spec)
		if xerr != nil {
			_ = s.store.Complete(j.Hash, s.node, StatusFailed, "recovered spec invalid: "+xerr.Error(), time.Now()) //pynamic:nondeterministic lease/heartbeat clock: liveness, not canonical bytes
			continue
		}

		ctx, cancel := context.WithCancel(s.base)
		rec := &record{
			id:     j.Hash,
			spec:   spec,
			kind:   exp.Kind,
			knobs:  exp.Grid,
			cancel: cancel,
			status: StatusQueued,
		}
		s.mu.Lock()
		if s.draining {
			s.mu.Unlock()
			cancel()
			return
		}
		if _, ok := s.jobs[j.Hash]; ok {
			// A submission beat us between the eligibility check and the
			// claim; its worker will re-resolve ownership via the store.
			s.mu.Unlock()
			cancel()
			continue
		}
		s.jobs[rec.id] = rec
		s.order = append(s.order, rec.id)
		if recovering {
			s.ctr.storeRecovered.Add(1)
		} else if prevOwner != "" && prevOwner != s.node {
			s.ctr.fleetSteals.Add(1)
		}
		s.workers.Add(1)
		s.mu.Unlock()

		go s.runAdopted(ctx, rec)
	}
}

// runAdopted executes a row the steal/recovery path already claimed:
// same tail as runSpec, but the claim exists, so the lease must be
// heartbeat-protected even while waiting for a semaphore slot.
func (s *Server) runAdopted(ctx context.Context, rec *record) {
	defer s.workers.Done()
	defer rec.cancel()

	// An adopted claim could outlive its lease just queueing for the
	// semaphore; renew it while we wait.
	stopHB := s.renewLease(rec.id)

	// A stolen job whose result landed in the shared cache directory
	// needs no re-execution at all: answer from the store.
	if res := s.eng.LookupSpecResult(rec.id); res != nil {
		stopHB()
		s.finishSpec(rec, StatusDone, "", res)
		return
	}

	select {
	case s.sem <- struct{}{}:
		defer func() { <-s.sem }()
	case <-ctx.Done():
		stopHB()
		s.finishSpec(rec, StatusCanceled, "canceled while queued", nil)
		return
	}
	stopHB()
	s.execClaimed(ctx, rec)
}
