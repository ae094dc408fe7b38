package serve

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/jobstore"
)

// tinySpecBody builds a cheap-but-real spec submission body with its
// own seed, so distinct seeds hash to distinct job keys and identical
// seeds exercise the dedup path.
func tinySpecBody(seed uint64) []byte {
	return []byte(fmt.Sprintf(`{"version":1,"kind":"job","seed":%d,
		"workload":{"scale_div":40,"funcs_div":10},
		"build":{"mode":"link"},
		"topology":{"tasks":1,"ranks":1}}`, seed))
}

// tinyJobBody is the typed-path twin of tinySpecBody.
func tinyJobBody(seed uint64) []byte {
	return []byte(fmt.Sprintf(`{"tasks":1,"ranks":1,"scale":40,"funcs_div":10,"seed":%d}`, seed))
}

// TestDrainSubmitRace hammers both submission paths concurrently with
// Drain. The contract under test: admission and the draining flag flip
// under one mutex, so every submission is either fully admitted before
// Drain's Wait (and therefore finished when Drain returns) or refused
// with 503 — never half-admitted. Before the fix, a submission could
// pass the pre-parse draining check, lose the CPU, and call
// workers.Add after Wait had already returned on an empty group —
// orphaning accepted work past a "clean" drain, which this test
// observes as a non-zero queue/running gauge right after Drain.
// Run with -race: the old unlocked handshake also trips the WaitGroup
// add-while-waiting reuse rule.
func TestDrainSubmitRace(t *testing.T) {
	const (
		iterations = 6
		submitters = 4
	)
	for iter := 0; iter < iterations; iter++ {
		_, sv, ts := newTestServer(t, Options{MaxConcurrent: 4})

		var stop atomic.Bool
		var wg sync.WaitGroup
		for g := 0; g < submitters; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for n := 0; !stop.Load(); n++ {
					seed := uint64(iter*1000 + g*100 + n + 1)
					if g%2 == 0 {
						post(t, ts, "/v1/jobs", tinyJobBody(seed))
					} else {
						post(t, ts, "/v1/specs", tinySpecBody(seed))
					}
				}
			}(g)
		}

		// Let submissions overlap the flag flip, then drain.
		time.Sleep(2 * time.Millisecond)
		ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
		err := sv.Drain(ctx)
		cancel()
		if err != nil {
			t.Fatalf("iter %d: drain: %v", iter, err)
		}

		// The moment Drain returns, nothing admitted may still be live:
		// an orphaned record here means a submission slipped past the
		// drain handshake.
		m := sv.Metrics()
		if m["queue_depth"] != 0 || m["running"] != 0 {
			t.Fatalf("iter %d: drained server has queue_depth=%v running=%v",
				iter, m["queue_depth"], m["running"])
		}

		stop.Store(true)
		wg.Wait()

		// With the submitters stopped, the counters must balance: every
		// accepted submission, on either route, reached exactly one
		// terminal outcome.
		m = sv.Metrics()
		accepted := m["specs_submitted"] - m["specs_deduped"] - m["specs_store_deduped"]
		if got := m["specs_done"] + m["specs_failed"] + m["specs_canceled"]; got != accepted {
			t.Fatalf("iter %d: %v accepted specs but outcomes sum to %v", iter, accepted, got)
		}
	}
}

// TestMetricsConsistentUnderDedup pins the dedup-counter atomicity
// fix: a scraper asserts on every observation that accepted spec
// submissions equal terminal outcomes plus live records. Before the
// fix the dedup decision snapshotted a record's status outside the
// lock its finish committed under, so a record finishing between the
// snapshot and the counter bumps made a scrape see, e.g., a done
// record whose specs_done had not ticked — an invariant violation this
// scraper would catch.
func TestMetricsConsistentUnderDedup(t *testing.T) {
	_, sv, ts := newTestServer(t, Options{MaxConcurrent: 2})

	var (
		stop       atomic.Bool
		violations atomic.Int64
		scrapes    atomic.Int64
		scraperWG  sync.WaitGroup
	)
	scraperWG.Add(1)
	go func() {
		defer scraperWG.Done()
		for !stop.Load() {
			m := sv.Metrics()
			scrapes.Add(1)
			accepted := m["specs_submitted"] - m["specs_deduped"] - m["specs_store_deduped"]
			settled := m["specs_done"] + m["specs_failed"] + m["specs_canceled"]
			live := m["queue_depth"] + m["running"]
			if math.Abs(accepted-(settled+live)) > 0 {
				violations.Add(1)
			}
		}
	}()

	// Hammer a tiny seed space so most submissions dedup against a
	// record that is finishing, running, or already done — the exact
	// interleaving the fix closes.
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for n := 0; n < 40; n++ {
				post(t, ts, "/v1/specs", tinySpecBody(uint64(n%3+1)))
			}
		}(g)
	}
	wg.Wait()
	stop.Store(true)
	scraperWG.Wait()

	if scrapes.Load() == 0 {
		t.Fatal("scraper never ran")
	}
	if v := violations.Load(); v != 0 {
		t.Fatalf("metrics invariant violated on %d of %d scrapes", v, scrapes.Load())
	}
}

// completeGate is a job store whose Complete signals, then waits for
// release: it holds a worker in the window after its record turned
// done but before the store row did.
type completeGate struct {
	jobstore.Store
	completing chan string
	release    chan struct{}
}

func (g *completeGate) Complete(hash, node, status, errMsg string, now time.Time) error {
	select {
	case g.completing <- hash:
	default:
	}
	<-g.release
	return g.Store.Complete(hash, node, status, errMsg, now)
}

// TestStealSkipsDoneRecord pins the steal-loop race: a steal pass that
// runs while a finished spec's store Complete is still in flight sees
// a running row this node owns. It must leave the done record alone.
// Replacing it with a fresh queued record made /result answer 409
// after the client had seen done, and simulated the spec a second time.
func TestStealSkipsDoneRecord(t *testing.T) {
	gate := &completeGate{
		Store:      jobstore.NewMemory(),
		completing: make(chan string, 1),
		release:    make(chan struct{}),
	}
	_, sv, ts := newTestServer(t, Options{Store: gate, StealInterval: time.Hour})
	released := false
	t.Cleanup(func() {
		if !released {
			close(gate.release)
		}
	})

	id, code := submitSpecBody(t, ts, tinySpecBody(1))
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d", code)
	}
	if got := <-gate.completing; got != id {
		t.Fatalf("completing %s, want %s", got, id)
	}
	sv.stealOnce()
	resp, err := http.Get(ts.URL + "/v1/specs/" + id + "/result")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result after done: status %d, want 200", resp.StatusCode)
	}

	close(gate.release)
	released = true
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := sv.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if got := sv.Metrics()["engine_specs"]; got != 1 {
		t.Fatalf("engine_specs = %v, want 1", got)
	}
}
