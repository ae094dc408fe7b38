package scenario

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/api"
	"repro/internal/runner"
)

// tinyShape shrinks a scenario grid point for unit tests.
func tinyShape(p runner.Params) runner.Params {
	out := runner.Params{}
	for k, v := range p {
		out[k] = v
	}
	if _, ok := out["scale_div"]; ok {
		out["scale_div"] = 60
	}
	if _, ok := out["funcs_div"]; ok {
		out["funcs_div"] = 20
	}
	if _, ok := out["tasks"]; ok && out.Int("tasks") > 64 {
		out["tasks"] = 64
	}
	return out
}

func TestCatalogShape(t *testing.T) {
	cat := Catalog()
	if len(cat) < 6 {
		t.Fatalf("catalog has %d scenarios, want >= 6", len(cat))
	}
	seen := map[string]bool{}
	for _, s := range cat {
		if s.Name == "" || s.Description == "" {
			t.Fatalf("scenario %+v missing name or description", s)
		}
		if seen[s.Name] {
			t.Fatalf("duplicate scenario name %q", s.Name)
		}
		seen[s.Name] = true
		if s.Knobs == nil || len(s.Knobs()) == 0 {
			t.Fatalf("scenario %s has an empty knob grid", s.Name)
		}
		if s.Run == nil || s.Check == nil {
			t.Fatalf("scenario %s missing Run or Check", s.Name)
		}
	}
}

func TestRegisterNamespacesCatalog(t *testing.T) {
	reg := runner.NewRegistry()
	Register(reg)
	names := reg.Names()
	if len(names) != len(Catalog()) {
		t.Fatalf("registered %d, want %d", len(names), len(Catalog()))
	}
	for _, n := range names {
		if !strings.HasPrefix(n, Prefix) {
			t.Fatalf("registered name %q lacks prefix %q", n, Prefix)
		}
	}
	got := Names()
	for i, n := range names {
		if got[i] != n {
			t.Fatalf("Names()[%d] = %q, registry has %q", i, got[i], n)
		}
	}
}

// TestEveryScenarioRunsDeterministically executes each catalog cell at
// reduced scale twice per seed: same seed must reproduce identical
// metrics, the invariant hook must pass, and seed 0 (the paper-default
// sentinel) must work.
func TestEveryScenarioRunsDeterministically(t *testing.T) {
	for _, s := range Catalog() {
		s := s
		t.Run(s.Name, func(t *testing.T) {
			t.Parallel()
			for _, seed := range []uint64{0, 1234} {
				p := tinyShape(s.Knobs()[0])
				m1, err := s.Run(context.Background(), p, seed)
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				if len(m1) == 0 {
					t.Fatalf("seed %d: no metrics", seed)
				}
				if err := s.Check(p, m1); err != nil {
					t.Fatalf("seed %d: invariant: %v", seed, err)
				}
				m2, err := s.Run(context.Background(), p, seed)
				if err != nil {
					t.Fatalf("seed %d rerun: %v", seed, err)
				}
				a, _ := json.Marshal(m1)
				b, _ := json.Marshal(m2)
				if string(a) != string(b) {
					t.Fatalf("seed %d not deterministic:\n%s\n%s", seed, a, b)
				}
			}
		})
	}
}

// TestScenarioSeedChangesWorkload makes sure nonzero seeds actually
// reseed the generated workload (not just get ignored).
func TestScenarioSeedChangesWorkload(t *testing.T) {
	s := reimportChurn()
	p := tinyShape(s.Knobs()[0])
	m1, err := s.Run(context.Background(), p, 1)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := s.Run(context.Background(), p, 2)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := json.Marshal(m1)
	b, _ := json.Marshal(m2)
	if string(a) == string(b) {
		t.Fatal("different seeds produced identical metrics")
	}
}

// TestInvariantViolationFailsCell wires a scenario whose Check always
// rejects through the Experiment adapter and verifies the runner sees
// an error, not silent bad data.
func TestInvariantViolationFailsCell(t *testing.T) {
	s := &Scenario{
		Name:        "broken",
		Description: "always violates its invariant",
		Knobs:       func() []runner.Params { return []runner.Params{{"x": 1}} },
		Run: func(_ context.Context, p runner.Params, seed uint64) (runner.Metrics, error) {
			return runner.Metrics{"v": -1}, nil
		},
		Check: func(p runner.Params, m runner.Metrics) error {
			return fmt.Errorf("v = %g is negative", m["v"])
		},
	}
	reg := runner.NewRegistry()
	reg.MustRegister(s.Experiment())
	_, err := runner.RunMatrixCtx(context.Background(), reg, runner.MatrixSpec{Seed: 1})
	if err == nil || !strings.Contains(err.Error(), "invariant violated") {
		t.Fatalf("want invariant-violation error, got %v", err)
	}
}

// TestScenarioMatrixDeterministicAcrossWorkers runs two fast catalog
// scenarios through the worker pool at different worker counts; the
// aggregated results must be byte-identical (the acceptance criterion
// behind `pynamic-runner -experiments scenario:*`).
func TestScenarioMatrixDeterministicAcrossWorkers(t *testing.T) {
	reg := runner.NewRegistry()
	Register(reg)
	grids := map[string][]runner.Params{
		Prefix + "reimport-churn":   {tinyShape(runner.Params{"scale_div": 1, "funcs_div": 1, "rounds": 3})},
		Prefix + "symbol-collision": {{"decoys": 16, "provider_syms": 32}},
	}
	var outs []string
	for _, workers := range []int{1, 7} {
		res, err := runner.RunMatrixCtx(context.Background(), reg, runner.MatrixSpec{
			Experiments: []string{Prefix + "reimport-churn", Prefix + "symbol-collision"},
			Grids:       grids,
			Repeats:     2,
			Seed:        99,
			Workers:     workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(res.Experiments)
		if err != nil {
			t.Fatal(err)
		}
		outs = append(outs, string(b))
	}
	if outs[0] != outs[1] {
		t.Fatal("scenario matrix differs across worker counts")
	}
}

// budgetCtx reports itself canceled after its first budget Err()
// reads, so a test can cancel a cell at an exact probe.
type budgetCtx struct {
	context.Context
	budget int64
}

func (c *budgetCtx) Err() error {
	if atomic.AddInt64(&c.budget, -1) < 0 {
		return context.Canceled
	}
	return nil
}

// TestCancelEveryCell hands every catalog cell, through the registered
// Experiment adapter, an already-canceled context: each must stop with
// an error wrapping api.ErrCanceled instead of running to completion.
func TestCancelEveryCell(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, s := range Catalog() {
		_, err := s.Experiment().Run(ctx, s.Knobs()[0], 1)
		if !errors.Is(err, api.ErrCanceled) {
			t.Errorf("%s: err = %v, want one wrapping ErrCanceled", s.Name, err)
		}
	}
}

// TestCancelInsideLoaderCells cancels the cells that drive the loader
// themselves one probe after their workload generation finished (each
// generated DSO costs one probe): the cancellation must land in the
// cell's own module loops, not run them to completion.
func TestCancelInsideLoaderCells(t *testing.T) {
	for _, s := range []*Scenario{reimportChurn(), importShuffle(), symbolCollision()} {
		p := tinyShape(s.Knobs()[0])
		budget := int64(1)
		if _, ok := p["scale_div"]; ok {
			cfg, err := seededConfig(1, p)
			if err != nil {
				t.Fatal(err)
			}
			budget += int64(cfg.NumUtils + cfg.NumModules)
		}
		ctx := &budgetCtx{Context: context.Background(), budget: budget}
		if _, err := s.Run(ctx, p, 1); !errors.Is(err, api.ErrCanceled) {
			t.Errorf("%s: err = %v, want one wrapping ErrCanceled", s.Name, err)
		}
	}
}
