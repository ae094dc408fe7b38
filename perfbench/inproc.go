package main

import (
	"context"
	"fmt"
	"sync/atomic"

	pynamic "repro"
)

// system is one set-up instance of the system under test.
type system interface {
	// do executes op id and returns the bytes serve's /result would
	// carry for it. With tr non-nil it records its calls as spans under
	// parent.
	do(ctx context.Context, id int, o op, tr *tracer, parent int) ([]byte, error)
	// sideTrace records, outside the op's clock, spans for work the
	// system did for op id that the harness cannot time in place.
	sideTrace(id int, o op, result []byte, tr *tracer)
	engine() *pynamic.Engine
	close() error
}

// engineSystem drives a pynamic.Engine in-process (kernel and cold).
type engineSystem struct {
	eng   *pynamic.Engine
	specs []pynamic.Spec
	// genFuncs sums the functions generated by traced ops whose
	// GenerateCtx was not a workload-cache hit.
	genFuncs atomic.Int64
}

// setupEngine builds the engine a kernel or cold run measures and
// drives every mix entry through it once.
func setupEngine(ctx context.Context, p *plan) (*engineSystem, error) {
	var opts []pynamic.Option
	if p.workload == wCold {
		opts = append(opts, pynamic.WithWorkloadCacheSize(0))
	}
	eng, err := pynamic.New(opts...)
	if err != nil {
		return nil, err
	}
	s := &engineSystem{eng: eng, specs: p.specs}
	for _, i := range p.warm {
		if _, err := s.do(ctx, -1, op{spec: i}, nil, -1); err != nil {
			return nil, fmt.Errorf("warm-up spec %d: %w", i, err)
		}
	}
	return s, nil
}

func (s *engineSystem) do(ctx context.Context, id int, o op, tr *tracer, parent int) ([]byte, error) {
	spec := s.specs[o.spec]
	if tr == nil {
		res, err := s.eng.RunSpecCtx(ctx, spec)
		if err != nil {
			return nil, err
		}
		return encodeResult(res.Payload())
	}
	// Traced: the public calls RunSpecCtx makes for a job spec, one
	// span each.
	sp := tr.begin("spec.expand", id, parent)
	exp, err := s.eng.ExpandSpec(spec)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	// One client per in-process workload, so the hit counter moves only
	// for this call; a disabled cache counts nothing, so no hit means
	// the call generated.
	hits := s.eng.WorkloadCacheStats().Hits
	sp = tr.begin("engine.generate", id, parent)
	w, err := s.eng.GenerateCtx(ctx, *exp.Gen)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	if s.eng.WorkloadCacheStats().Hits == hits {
		s.genFuncs.Add(int64(w.TotalFuncs()))
	}
	jc := *exp.Job
	jc.Workload = w
	sp = tr.begin("job.run", id, parent)
	jr, err := s.eng.RunJobCtx(ctx, jc)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	sp = tr.begin("result.encode", id, parent)
	defer tr.end(sp)
	return encodeResult(jr)
}

func (s *engineSystem) sideTrace(int, op, []byte, *tracer) {}

func (s *engineSystem) engine() *pynamic.Engine { return s.eng }

func (s *engineSystem) close() error { return nil }
