package main

import (
	"fmt"
	"math/rand"

	pynamic "repro"
)

// Workload names, as BENCHMARK.json lists them.
const (
	wKernel = "kernel"
	wCold   = "cold"
	wServe  = "serve"
)

// opsPerSecond turns --seconds into an op count. A run is bounded by
// op count, never by duration, so the work a run does depends only on
// its arguments; the rates are about what a 2-core x86 guest sustains,
// so there a run measures for about --seconds.
var opsPerSecond = map[string]int{wKernel: 36, wCold: 36, wServe: 1200}

// serveReadSpecs is how many distinct specs the serve setup writes and
// the measured reads resubmit. It is larger than loadgen's 64 so that
// the setup's warm-up pass is a few hundred ms of deterministic work.
const serveReadSpecs = 256

// serveZipfS is the popularity skew of serve reads over those specs.
const serveZipfS = 1.1

var modes = []string{"vanilla", "link", "link-bind"}

// op is one closed-loop request of the measured phase.
type op struct {
	// spec indexes plan.specs.
	spec int
	// write marks a serve submission of a never-seen spec (expects
	// 202); serve reads resubmit a setup spec (expect 200 dedup).
	write bool
}

// plan is everything a run sends to the system, derived from the
// workload name, the seed and the op count alone.
type plan struct {
	workload string
	seed     uint64
	clients  int
	specs    []pynamic.Spec
	// warm lists the specs the setup's warm-up pass drives once each.
	warm []int
	ops  []op
}

// runsJob reports whether executing o makes the system run a job: every
// in-process op does, and on serve only writes do (reads are answered
// from the stored result).
func (p *plan) runsJob(o op) bool { return p.workload != wServe || o.write }

// opCount is the op count --seconds asks for, rounded up so that each
// of a phase's segments visits every mix entry of an in-process
// workload equally often and holds whole blocks of four serve ops.
func opCount(workload string, seconds, segments int) int {
	n := opsPerSecond[workload] * seconds
	unit := segments * map[string]int{wKernel: 12, wCold: 24, wServe: 4}[workload]
	return (n + unit - 1) / unit * unit
}

// newPlan builds the plan for workload from seed, with nops measured
// ops (a multiple of the workload's mix unit, see opCount).
func newPlan(workload string, seed uint64, nops int) (*plan, error) {
	rng := rand.New(rand.NewSource(int64(seed)))
	seen := map[uint64]bool{}
	// specSeed draws a distinct non-zero generator seed (0 would mean
	// the profile default), so every spec owns its own workload.
	specSeed := func() uint64 {
		for {
			s := uint64(rng.Int63()) | 1
			if !seen[s] {
				seen[s] = true
				return s
			}
		}
	}
	p := &plan{workload: workload, seed: seed, clients: 1}
	switch workload {
	case wKernel, wCold:
		// kernel: four simulated ranks of a 32-task job, four seeds per
		// build mode, on a warm workload cache. cold: one rank and no
		// cache, so every op regenerates; eight seeds per mode. A
		// workload's size varies with its seed and a run's mean should
		// not; kernel's four seeds also make its setup a few hundred ms.
		seeds, ranks := 4, 4
		if workload == wCold {
			seeds, ranks = 8, 1
		}
		for i := 0; i < seeds; i++ {
			s := specSeed()
			for _, m := range modes {
				p.specs = append(p.specs, jobSpec(s, m, 20, 4, 32, ranks))
			}
		}
		k := len(p.specs)
		if nops%k != 0 {
			return nil, fmt.Errorf("%s: %d ops is not a multiple of the %d-spec mix", workload, nops, k)
		}
		for i := 0; i < k; i++ {
			p.warm = append(p.warm, i)
		}
		for r := 0; r < nops/k; r++ {
			for _, i := range rng.Perm(k) {
				p.ops = append(p.ops, op{spec: i})
			}
		}
	case wServe:
		// Tiny specs shaped like loadgen.DefaultMix: the kernel is a
		// small share of a request here, serving costs dominate.
		p.clients = 2
		for i := 0; i < serveReadSpecs; i++ {
			p.specs = append(p.specs, jobSpec(specSeed(), modes[i%3], 140, 40, 2+2*(i%2), 1))
			p.warm = append(p.warm, i)
		}
		if nops%4 != 0 {
			return nil, fmt.Errorf("serve: %d ops is not a multiple of 4", nops)
		}
		zipf := rand.NewZipf(rng, serveZipfS, 1, serveReadSpecs-1)
		for b := 0; b < nops/4; b++ {
			w := rng.Intn(4)
			for j := 0; j < 4; j++ {
				if j != w {
					p.ops = append(p.ops, op{spec: int(zipf.Uint64())})
					continue
				}
				n := len(p.specs)
				p.specs = append(p.specs, jobSpec(specSeed(), modes[n%3], 140, 40, 2+2*(n%2), 1))
				p.ops = append(p.ops, op{spec: n, write: true})
			}
		}
	default:
		return nil, fmt.Errorf("unknown workload %q (want %s, %s or %s)", workload, wKernel, wCold, wServe)
	}
	return p, nil
}

// jobSpec is a job-kind spec over the LLNL profile with its DSO counts
// divided by scaleDiv and its per-DSO function counts by funcsDiv.
func jobSpec(seed uint64, mode string, scaleDiv, funcsDiv, tasks, ranks int) pynamic.Spec {
	return pynamic.Spec{
		Version:  pynamic.SpecVersion,
		Kind:     pynamic.SpecJob,
		Seed:     seed,
		Workload: &pynamic.WorkloadSpec{Profile: "llnl", ScaleDiv: scaleDiv, FuncsDiv: funcsDiv},
		Build:    &pynamic.BuildSpec{Mode: mode},
		Topology: &pynamic.TopologySpec{Tasks: tasks, Ranks: ranks},
	}
}
