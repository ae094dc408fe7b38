// Command perfbench is the repository's benchmark. It drives the real
// system from outside, through public functions only — a
// pynamic.Engine in-process, or a serve.Server behind a loopback HTTP
// listener — checks every op's result against a reference computed on
// the loader's reference path, and prints the metrics BENCHMARK.json
// declares. Run it from the repository root through its build wrapper:
//
//	bash perfbench/run.sh --workload kernel --seed 1 --seconds 15 --trace 0
//
// A run computes the references, sets the system up several times
// (setup_s is their median), then runs the workload's ops, a number
// fixed by the workload and --seconds, from closed-loop clients, in 15
// segments of the same op mix; the other end-to-end metrics pool the 7
// middle segments by throughput, leaving out the 4 fastest and the 4
// slowest, which the host's other tenants sped up or slowed down most.
// With --trace 1 it then sets up once more and repeats the same ops
// with spans recorded around every call into a layer, replays rank 0
// of every job through dynld and pyvm, and prints the per-layer metrics
// instead. The last line of standard output is the result; the line
// before it records the host, the settings, the CPU steal and the
// sample counts.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	pynamic "repro"
)

// config is one run's settings.
type config struct {
	workload string
	seed     uint64
	ops      int
	trace    bool
	// setups is how many times the system is set up; setup_s is the
	// median and the last setup is measured.
	setups int
	// segments is how many consecutive segments a measured phase is
	// split into, and trim how many of the fastest and how many of the
	// slowest of them the end-to-end metrics leave out.
	segments, trim int
	// minBeyondP90 is how many samples must lie beyond p90 for the run
	// to report it.
	minBeyondP90 int
	// workDir holds serve's data directories and the trace output.
	workDir string
}

// runRecord is the line printed before the result.
type runRecord struct {
	Workload       string         `json:"workload"`
	Seed           uint64         `json:"seed"`
	Trace          bool           `json:"trace"`
	Ops            int            `json:"ops"`
	Clients        int            `json:"clients"`
	PollIntervalMs float64        `json:"poll_interval_ms"`
	StealIntervalS float64        `json:"steal_interval_s"`
	Host           hostInfo       `json:"host"`
	CPUStealS      float64        `json:"cpu_steal_s"`
	CPUStealPct    float64        `json:"cpu_steal_pct"`
	SetupS         []float64      `json:"setup_s_each"`
	WarmupFailed   int            `json:"warmup_failed"`
	PeakRSSReset   bool           `json:"peak_rss_reset"`
	Samples        map[string]int `json:"samples"`
	// Segments holds each segment's throughput, CPU per op and host
	// steal, and which segments the end-to-end metrics pooled.
	Segments  map[string][]float64 `json:"segment_values"`
	Replays   int                  `json:"rank0_replays,omitempty"`
	TraceFile string               `json:"trace_file,omitempty"`
}

// result is the last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	cfg := config{setups: 5, segments: 15, trim: 4, minBeyondP90: 10, workDir: ".bench_build"}
	flag.StringVar(&cfg.workload, "workload", "", "workload: kernel, cold or serve")
	flag.Uint64Var(&cfg.seed, "seed", 1, "seed every spec, mix and schedule is derived from")
	seconds := flag.Int("seconds", 15, "measured-phase length the op count is sized for")
	trace := flag.Int("trace", 0, "1 adds a traced pass and prints the per-layer metrics")
	flag.Parse()
	if flag.NArg() > 0 || *seconds < 1 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	cfg.ops, cfg.trace = opCount(cfg.workload, *seconds, cfg.segments), *trace == 1

	ctx, cancel := context.WithTimeout(context.Background(), 170*time.Second)
	rec, res, err := run(ctx, cfg)
	cancel()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(rec); err == nil {
		err = enc.Encode(res)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, cfg config) (*runRecord, *result, error) {
	u0 := readUsage()
	p, err := newPlan(cfg.workload, cfg.seed, cfg.ops)
	if err != nil {
		return nil, nil, err
	}
	if err := os.MkdirAll(cfg.workDir, 0o755); err != nil {
		return nil, nil, err
	}
	refs, err := computeReferences(ctx, p)
	if err != nil {
		return nil, nil, err
	}
	rec, res, err := execute(ctx, cfg, p, refs)
	if err != nil {
		return nil, nil, err
	}
	u1 := readUsage()
	const ticksPerSecond = 100 // USER_HZ, the unit of /proc/stat
	rec.CPUStealS = (u1.stealTicks - u0.stealTicks) / ticksPerSecond
	rec.CPUStealPct = stealPct(u0, u1)
	return rec, res, nil
}

// execute sets the system up cfg.setups times, measures the last setup,
// and with cfg.trace runs the traced pass on one more setup.
func execute(ctx context.Context, cfg config, p *plan, refs []reference) (*runRecord, *result, error) {
	rec := &runRecord{
		Workload: p.workload, Seed: p.seed, Trace: cfg.trace, Ops: len(p.ops), Clients: p.clients,
		Host: readHost(),
	}
	var w *wire
	if p.workload == wServe {
		rec.PollIntervalMs = float64(pollInterval) / float64(time.Millisecond)
		rec.StealIntervalS = stealInterval.Seconds()
		var err error
		if w, err = newWire(p); err != nil {
			return nil, nil, err
		}
	}
	setup := func() (system, error) {
		if p.workload == wServe {
			s, failed, err := setupServe(ctx, p, w, cfg.workDir)
			rec.WarmupFailed += failed
			if err != nil {
				return nil, err
			}
			return s, nil
		}
		s, err := setupEngine(ctx, p)
		if err != nil {
			return nil, err
		}
		return s, nil
	}

	rec.PeakRSSReset = resetPeakRSS()
	// Every timed stretch starts with nothing left for the disk to
	// write back, so serve's fsyncs do not pay for an earlier teardown.
	quiesce := func() {
		runtime.GC()
		syscall.Sync()
	}
	var sys system
	defer func() {
		if sys != nil {
			sys.close()
		}
	}()
	for i := 0; i < cfg.setups; i++ {
		if sys != nil {
			if err := sys.close(); err != nil {
				return nil, nil, err
			}
			sys = nil
		}
		quiesce()
		t := time.Now()
		s, err := setup()
		if err != nil {
			return nil, nil, fmt.Errorf("setup: %w", err)
		}
		rec.SetupS = append(rec.SetupS, time.Since(t).Seconds())
		sys = s
	}
	quiesce()
	ph := measure(ctx, sys, p, refs, nil, cfg.segments)
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	peak, err := peakRSSMiB()
	if err != nil {
		return nil, nil, err
	}
	values, samples, segs, err := endToEndValues(ph, cfg.trim, rec.SetupS, peak, cfg.minBeyondP90)
	if err != nil {
		return nil, nil, err
	}
	rec.Samples, rec.Segments = samples, segs
	res := &result{Correct: ph.mismatch == 0, Attempted: len(p.ops), Failed: ph.failed}
	defs := endToEnd
	if cfg.trace {
		if err := sys.close(); err != nil {
			return nil, nil, err
		}
		sys = nil
		if sys, err = setup(); err != nil {
			return nil, nil, fmt.Errorf("setup: %w", err)
		}
		quiesce()
		var tph *phase
		values, tph, err = tracedPass(ctx, cfg, p, refs, sys, ph, rec)
		if err != nil {
			return nil, nil, err
		}
		res.Attempted += len(p.ops)
		res.Failed += tph.failed
		res.Correct = res.Correct && tph.mismatch == 0
		defs = perLayer
	}
	metrics, problems := report(defs, values)
	if len(problems) > 0 {
		return nil, nil, errors.New(strings.Join(problems, "; "))
	}
	res.Metrics = metrics
	return rec, res, nil
}

// endToEndValues computes the end-to-end metrics of an untraced phase
// from its middle segments by throughput, leaving out the trim fastest
// and the trim slowest. On a 2-vCPU guest of a shared host, a few
// seconds at a time run slower while other tenants are busy (CPU steal
// of 0-25% over a quarter second) or up to 45% faster while they are
// idle; pooling only the fastest segments would make a run's figures
// depend on whether it caught such an idle stretch. Every segment holds
// the same mix of ops. The run fails when the pooled p90 rests on fewer
// than minBeyond samples beyond it, or when so many pooled ops failed
// that the p90 is a failure.
func endToEndValues(ph *phase, trim int, setups []float64, peakMiB float64, minBeyond int) (map[string]float64, map[string]int, map[string][]float64, error) {
	segs := map[string][]float64{}
	order := make([]int, len(ph.segs))
	for k, sg := range ph.segs {
		order[k] = k
		n := float64(sg.hi - sg.lo)
		segs["throughput_rps"] = append(segs["throughput_rps"], (n-float64(sg.failed))/sg.wall())
		segs["cpu_ms_per_op"] = append(segs["cpu_ms_per_op"], (sg.after.cpu-sg.before.cpu)*1e3/n)
		segs["cpu_steal_pct"] = append(segs["cpu_steal_pct"], stealPct(sg.before, sg.after))
	}
	sort.SliceStable(order, func(a, b int) bool {
		return segs["throughput_rps"][order[a]] > segs["throughput_rps"][order[b]]
	})
	var lat []float64
	var failed int
	var wall, cpu float64
	for _, k := range order[trim : len(order)-trim] {
		sg := ph.segs[k]
		lat = append(lat, ph.lat[sg.lo:sg.hi]...)
		failed += sg.failed
		wall += sg.wall()
		cpu += sg.after.cpu - sg.before.cpu
		segs["pooled"] = append(segs["pooled"], float64(k))
	}
	n := len(lat)
	sort.Float64s(lat)
	p50, beyond50 := quantile(lat, 0.5)
	p90, beyond90 := quantile(lat, 0.9)
	samples := map[string]int{
		"segments": len(ph.segs), "pooled_segments": len(order) - 2*trim,
		"latency_p50_ms": n, "beyond_p50": beyond50, "latency_p90_ms": n, "beyond_p90": beyond90,
	}
	if beyond90 < minBeyond {
		return nil, samples, segs, fmt.Errorf("only %d of %d pooled samples lie beyond p90, need %d: run more ops", beyond90, n, minBeyond)
	}
	if math.IsInf(p90, 1) {
		return nil, samples, segs, fmt.Errorf("%d of %d pooled ops failed, more than p90 tolerates", failed, n)
	}
	return map[string]float64{
		"throughput_rps": float64(n-failed) / wall,
		"latency_p50_ms": p50 * 1e3,
		"latency_p90_ms": p90 * 1e3,
		"cpu_ms_per_op":  cpu * 1e3 / float64(n),
		"peak_rss_mb":    peakMiB,
		"setup_s":        median(setups),
	}, samples, segs, nil
}

// tracedPass repeats p's ops on a fresh setup with spans recorded,
// replays rank 0 of every job the ops ran, and computes the per-layer
// metrics. The Go runtime metrics come from the untraced phase, so
// tracing's own allocations do not count.
func tracedPass(ctx context.Context, cfg config, p *plan, refs []reference, sys system, untraced *phase, rec *runRecord) (map[string]float64, *phase, error) {
	tr := newTracer()
	ss, _ := sys.(*serveSystem)
	if ss != nil {
		ss.store.trace(tr)
	}
	eng := sys.engine()
	stats0 := eng.Stats()
	var polls0, posts0, dedups0 int64
	if ss != nil {
		polls0, posts0, dedups0 = ss.polls.Load(), ss.posts.Load(), ss.dedups.Load()
	}
	ph := measure(ctx, sys, p, refs, tr, cfg.segments)
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	stats1 := eng.Stats()
	store0, store1 := stats0.Store, stats1.Store
	if ss != nil {
		ss.store.trace(nil)
	}

	reng, err := pynamic.New(pynamic.WithWorkloadCacheSize(0))
	if err != nil {
		return nil, nil, err
	}
	replays := map[int]replayTimes{}
	for _, o := range p.ops {
		if _, done := replays[o.spec]; done || !p.runsJob(o) {
			continue
		}
		rt, err := replayRank0(ctx, reng, p.specs[o.spec], refs[o.spec].rank0)
		if err != nil {
			return nil, nil, fmt.Errorf("rank-0 replay of spec %d: %w", o.spec, err)
		}
		replays[o.spec] = rt
	}
	rec.Replays = len(replays)

	n := float64(len(p.ops))
	agg := tr.aggregate()
	selfPerOp := func(name string) float64 { return agg[name].self / n }
	meanCall := func(name string) float64 { return ratio(agg[name].total, float64(agg[name].count)) }
	v := map[string]float64{
		"spec.expand_us":     selfPerOp("spec.expand") * 1e6,
		"result.encode_us":   selfPerOp("result.encode") * 1e6,
		"engine.generate_ms": selfPerOp("engine.generate") * 1e3,
		"job.run_ms":         selfPerOp("job.run") * 1e3,
		"engine.cache_hit_ratio": ratio(float64(stats1.WorkloadCache.Hits-stats0.WorkloadCache.Hits),
			float64(stats1.Generates-stats0.Generates)),
	}

	var jobs, writes, funcs float64
	var work jobWork
	var rt replayTimes
	for _, o := range p.ops {
		if o.write {
			writes++
		}
		if !p.runsJob(o) {
			continue
		}
		jobs++
		r, x := refs[o.spec], replays[o.spec]
		if o.write {
			funcs += float64(r.funcs) // a fresh spec's workload is always generated
		}
		work.relocs += r.work.relocs
		work.lookups += r.work.lookups
		work.probes += r.work.probes
		work.calls += r.work.calls
		work.pltCalls += r.work.pltCalls
		rt.index += x.index
		rt.startup += x.startup
		rt.imports += x.imports
		rt.visit += x.visit
		rt.accesses += x.accesses
		rt.bytes += x.bytes
	}
	if es, ok := sys.(*engineSystem); ok {
		funcs = float64(es.genFuncs.Load())
	}
	msPerRank := func(d time.Duration) float64 { return ratio(d.Seconds()*1e3, jobs) }
	v["pygen.funcs_per_op"] = funcs / n
	v["job.index_ms"] = rt.index.Seconds() * 1e3 / n
	v["dynld.startup_ms"] = msPerRank(rt.startup)
	v["dynld.relocs_per_op"] = float64(work.relocs) / n
	v["dynld.lookups_per_op"] = float64(work.lookups) / n
	v["dynld.scope_probes_per_op"] = float64(work.probes) / n
	v["pyvm.import_ms"] = msPerRank(rt.imports)
	v["pyvm.visit_ms"] = msPerRank(rt.visit)
	v["pyvm.calls_per_op"] = float64(work.calls) / n
	v["pyvm.plt_calls_per_op"] = float64(work.pltCalls) / n
	v["memsim.accesses_per_rank"] = ratio(float64(rt.accesses), jobs)
	v["memsim.bytes_per_rank"] = ratio(float64(rt.bytes), jobs)

	var castoreBytes, polls, posts, dedups, walBytes float64
	if ss != nil {
		size, err := ss.castoreBytes()
		if err != nil {
			return nil, nil, err
		}
		castoreBytes, walBytes = float64(size), float64(ss.store.appended())
		polls = float64(ss.polls.Load() - polls0)
		posts, dedups = float64(ss.posts.Load()-posts0), float64(ss.dedups.Load()-dedups0)
	}
	hits, misses := float64(store1.Hits-store0.Hits), float64(store1.Misses-store0.Misses)
	v["castore.puts_per_op"] = float64(store1.Puts-store0.Puts) / n
	v["castore.hit_ratio"] = ratio(hits, hits+misses)
	v["castore.bytes_per_put"] = ratio(castoreBytes, float64(store1.Puts))
	v["serve.polls_per_write"] = ratio(polls, writes)
	v["serve.dedup_ratio"] = ratio(dedups, posts)
	v["jobstore.wal_bytes_per_write"] = ratio(walBytes, writes)
	v["serve.submit_fresh_ms"] = meanCall("serve.submit_fresh") * 1e3
	v["serve.submit_dedup_ms"] = meanCall("serve.submit_dedup") * 1e3
	v["serve.wait_ms"] = ratio(agg["serve.wait"].total*1e3, writes)
	v["serve.result_ms"] = meanCall("serve.result") * 1e3
	v["jobstore.put_us"] = meanCall("jobstore.put") * 1e6
	v["jobstore.claim_us"] = meanCall("jobstore.claim") * 1e6
	v["jobstore.complete_us"] = meanCall("jobstore.complete") * 1e6
	v["jobstore.list_ms"] = meanCall("jobstore.list") * 1e3
	var storeCalls float64
	for name, lt := range agg {
		if strings.HasPrefix(name, "jobstore.") {
			storeCalls += float64(lt.count)
		}
	}
	v["jobstore.calls_per_write"] = ratio(storeCalls, writes)

	un, u0, u1 := float64(len(untraced.lat)), untraced.before(), untraced.after()
	v["go.alloc_kb_per_op"] = (u1.alloc - u0.alloc) / 1024 / un
	v["go.gc_per_kop"] = (u1.gcCycles - u0.gcCycles) * 1000 / un
	v["go.gc_cpu_ms_per_op"] = (u1.gcCPU - u0.gcCPU) * 1e3 / un
	v["trace.overhead_pct"] = (meanLatency(ph)/meanLatency(untraced) - 1) * 100

	rec.TraceFile = filepath.Join(cfg.workDir, fmt.Sprintf("trace-%s-seed%d.jsonl", p.workload, p.seed))
	if err := tr.write(rec.TraceFile); err != nil {
		return nil, nil, err
	}
	return v, ph, nil
}

// ratio is a/b, or 0 when b is 0 (a layer the workload never reached).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// meanLatency is the mean latency of a phase's successful ops.
func meanLatency(ph *phase) float64 {
	var sum float64
	var n int
	for _, l := range ph.lat {
		if !math.IsInf(l, 1) {
			sum += l
			n++
		}
	}
	return ratio(sum, float64(n))
}
