package serve

import (
	"fmt"
	"math/rand"
	"net/http/httptest"
	"slices"
	"testing"
	"time"

	pynamic "repro"
)

// twoPassPrune is the history pruning the terminal count replaced:
// count every finished record in order, then drop the oldest finished
// ones until the count fits max.
func twoPassPrune(jobs map[string]*record, order []string, max int) []string {
	finished := 0
	for _, id := range order {
		if st := jobs[id].statusOf(); st != StatusQueued && st != StatusRunning {
			finished++
		}
	}
	if finished <= max {
		return order
	}
	var keep []string
	for _, id := range order {
		if st := jobs[id].statusOf(); finished > max && st != StatusQueued && st != StatusRunning {
			delete(jobs, id)
			finished--
			continue
		}
		keep = append(keep, id)
	}
	return keep
}

// TestPruneHistoryMatchesScan drives a server's record table through a
// random sequence of submissions, store-dedup registrations, finishes
// and dead-record replacements. After every step the terminal count
// must equal a recount, and the records left and their order must
// equal what the two-pass scan leaves on a model fed the same steps.
func TestPruneHistoryMatchesScan(t *testing.T) {
	eng, err := pynamic.New()
	if err != nil {
		t.Fatal(err)
	}
	const maxHistory = 6
	s := New(eng, Options{MaxHistory: maxHistory, StealInterval: time.Hour})
	defer s.Close()

	modelJobs := map[string]*record{}
	var modelOrder []string
	register := func(rec *record) {
		s.jobs[rec.id] = rec
		s.order = append(s.order, rec.id)
		modelJobs[rec.id] = rec
		modelOrder = append(modelOrder, rec.id)
	}
	newRecord := func(id, status string) *record {
		return &record{id: id, cancel: func() {}, status: status}
	}
	ids := func(status ...string) []string {
		var out []string
		for _, id := range modelOrder {
			if slices.Contains(status, modelJobs[id].statusOf()) {
				out = append(out, id)
			}
		}
		return out
	}

	rng := rand.New(rand.NewSource(22))
	next := 0
	for step := 0; step < 3000; step++ {
		switch op := rng.Intn(10); {
		case op < 4: // a fresh submission, queued
			s.mu.Lock()
			register(newRecord(fmt.Sprintf("spec-%d", next), StatusQueued))
			s.mu.Unlock()
			next++
		case op < 5: // a submission answered from the persistent store
			s.mu.Lock()
			register(newRecord(fmt.Sprintf("spec-%d", next), StatusDone))
			s.countFinishLocked(StatusDone)
			s.mu.Unlock()
			next++
			s.pruneHistory()
			modelOrder = twoPassPrune(modelJobs, modelOrder, maxHistory)
		case op < 8: // a queued or running record finishes
			live := ids(StatusQueued, StatusRunning)
			if len(live) == 0 {
				continue
			}
			rec := modelJobs[live[rng.Intn(len(live))]]
			if rng.Intn(2) == 0 {
				rec.mu.Lock()
				rec.status = StatusRunning
				rec.mu.Unlock()
				continue
			}
			status := []string{StatusDone, StatusFailed, StatusCanceled}[rng.Intn(3)]
			s.finishSpec(rec, status, "", nil)
			modelOrder = twoPassPrune(modelJobs, modelOrder, maxHistory)
		default: // a resubmission replaces a failed or canceled record
			dead := ids(StatusFailed, StatusCanceled)
			if len(dead) == 0 {
				continue
			}
			id := dead[rng.Intn(len(dead))]
			s.mu.Lock()
			if s.replyLiveSpecLocked(httptest.NewRecorder(), id) {
				t.Fatalf("step %d: a dead record %s answered as live", step, id)
			}
			delete(modelJobs, id)
			modelOrder = slices.DeleteFunc(modelOrder, func(have string) bool { return have == id })
			register(newRecord(id, StatusQueued))
			s.mu.Unlock()
		}

		s.mu.Lock()
		recount := 0
		for _, rec := range s.jobs {
			if st := rec.statusOf(); st != StatusQueued && st != StatusRunning {
				recount++
			}
		}
		if s.terminal != recount {
			t.Fatalf("step %d: terminal count %d, recount %d", step, s.terminal, recount)
		}
		if !slices.Equal(s.order, modelOrder) || len(s.jobs) != len(modelJobs) {
			t.Fatalf("step %d: order %v (%d records), two-pass scan leaves %v (%d)",
				step, s.order, len(s.jobs), modelOrder, len(modelJobs))
		}
		s.mu.Unlock()
	}
	if next < 1000 {
		t.Fatalf("only %d submissions; the sequence barely exercised pruning", next)
	}
}
