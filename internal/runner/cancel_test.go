package runner

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/api"
)

// probeCtx reports itself canceled after the first budget Err() reads,
// making the cancellation point exact and scheduler-independent.
type probeCtx struct {
	context.Context
	budget int64
}

func (c *probeCtx) Err() error {
	if atomic.AddInt64(&c.budget, -1) < 0 {
		return context.Canceled
	}
	return nil
}

// TestRunMatrixCtxPartialResults: with one worker and a cell that
// probes ctx exactly once, the probe budget admits exactly two cells
// (worker pre-probe + cell probe each); the third is abandoned. The
// partial result must carry the two completed cells, aggregates for
// exactly those grid points, and the Canceled mark, alongside an error
// wrapping api.ErrCanceled.
func TestRunMatrixCtxPartialResults(t *testing.T) {
	reg := NewRegistry()
	var runs int32
	reg.MustRegister(&Experiment{
		Name: "probe",
		Grid: func() []Params {
			return []Params{{"i": 0}, {"i": 1}, {"i": 2}, {"i": 3}}
		},
		Run: func(ctx context.Context, p Params, seed uint64) (Metrics, error) {
			if err := api.Checkpoint(ctx); err != nil {
				return nil, err
			}
			atomic.AddInt32(&runs, 1)
			return Metrics{"total_sec": p.Float("i")}, nil
		},
	})
	ctx := &probeCtx{Context: context.Background(), budget: 4}
	res, err := RunMatrixCtx(ctx, reg, MatrixSpec{
		Experiments: []string{"probe"},
		Repeats:     1,
		Seed:        42,
		Workers:     1,
	})
	if err == nil || !errors.Is(err, api.ErrCanceled) {
		t.Fatalf("expected ErrCanceled, got %v", err)
	}
	if res == nil || !res.Canceled {
		t.Fatalf("expected marked partial result, got %+v", res)
	}
	if got := atomic.LoadInt32(&runs); got != 2 {
		t.Fatalf("cells executed: %d, want 2", got)
	}
	if res.ExecutedCells != 2 {
		t.Fatalf("ExecutedCells = %d, want 2", res.ExecutedCells)
	}
	er := res.Experiments[0]
	if len(er.Cells) != 2 || len(er.Aggregates) != 2 {
		t.Fatalf("partial shape: %d cells, %d aggregates", len(er.Cells), len(er.Aggregates))
	}
	for i, c := range er.Cells {
		if c.Params.Int("i") != i || c.Metrics == nil {
			t.Fatalf("cell %d malformed: %+v", i, c)
		}
	}
}

// TestRunMatrixCtxLiveContext: a never-canceled context completes the
// matrix with Canceled unset and no error.
func TestRunMatrixCtxLiveContext(t *testing.T) {
	reg := NewRegistry()
	reg.MustRegister(&Experiment{
		Name: "ok",
		Grid: func() []Params { return []Params{{"i": 0}} },
		Run: func(ctx context.Context, p Params, seed uint64) (Metrics, error) {
			return Metrics{"v": 1}, nil
		},
	})
	res, err := RunMatrixCtx(context.Background(), reg, MatrixSpec{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Canceled || res.ExecutedCells != 1 {
		t.Fatalf("unexpected result: %+v", res)
	}
}

// TestRegisterRequiresRunFunc: an experiment must provide Run.
func TestRegisterRequiresRunFunc(t *testing.T) {
	reg := NewRegistry()
	if err := reg.Register(&Experiment{Name: "empty"}); err == nil {
		t.Fatal("experiment without Run registered")
	}
	if err := reg.Register(&Experiment{
		Name: "runs",
		Run:  func(context.Context, Params, uint64) (Metrics, error) { return nil, nil },
	}); err != nil {
		t.Fatalf("experiment with Run rejected: %v", err)
	}
}

// TestRequireParams: the Require helpers must name the experiment and
// the canonical cell, so a grid-key typo is immediately localizable.
func TestRequireParams(t *testing.T) {
	p := Params{"tasks": 8, "mode": "link", "frac": 0.5}
	if v, err := p.RequireInt("jobdist", "tasks"); err != nil || v != 8 {
		t.Fatalf("RequireInt: %v, %v", v, err)
	}
	if s, err := p.RequireStr("jobdist", "mode"); err != nil || s != "link" {
		t.Fatalf("RequireStr: %v, %v", s, err)
	}
	if f, err := p.RequireFloat("jobdist", "frac"); err != nil || f != 0.5 {
		t.Fatalf("RequireFloat: %v, %v", f, err)
	}
	_, err := p.RequireInt("jobdist", "taks") // typo'd key
	if err == nil {
		t.Fatal("missing key accepted")
	}
	for _, want := range []string{"jobdist", p.Canonical(), "taks"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q does not localize %q", err, want)
		}
	}
	if _, err := p.RequireFloat("jobdist", "mode"); err == nil {
		t.Fatal("non-numeric value accepted")
	}
	if _, err := p.RequireStr("jobdist", "tasks"); err == nil {
		t.Fatal("non-string value accepted")
	}
}
