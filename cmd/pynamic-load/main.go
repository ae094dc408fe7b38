// Command pynamic-load is the load harness: it replays seeded,
// Zipfian-distributed Spec traffic against a live pynamic-serve
// instance (-target URL), a fleet of replicas (-targets, round-robin
// with failover), or an in-process Engine (default), sweeping
// concurrency × spec-mix skew × workload-cache size, and records
// latency percentiles, throughput, error rate, cache/dedup/
// persistent-store hit ratios, and fleet forward/steal counters per
// cell (-1 when the target is not a fleet).
//
//	# drive a two-replica fleet round-robin
//	pynamic-load -targets http://h1:8080,http://h2:8080 -duration 2s
//
//	# 12-cell in-process sweep, 2s per cell
//	pynamic-load -duration 2s -concurrency 1,2,4,8 -cache-size 0,4,16
//
//	# drive a live service (closed loop, 4 workers)
//	pynamic-serve -addr :8080 &
//	pynamic-load -target http://127.0.0.1:8080 -duration 2s -concurrency 4
//
//	# open loop at 200 req/s
//	pynamic-load -target http://127.0.0.1:8080 -mode open -rate 200 -duration 5s
//
// Each cell prints one progress line; artifacts land under
// <out>/<stamp>/loadgen/ as sweep.json + cells.csv. The request
// schedule is a pure function of (-seed, -skew, -specs): identical
// flags replay identical traffic. pynamic-load drives traffic; the
// repository's performance record is the perfbench benchmark
// (perfbench/, BENCHMARK.json).
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"repro/internal/loadgen"
)

func main() {
	var (
		target    = flag.String("target", "", "pynamic-serve base URL (empty = in-process Engine)")
		targets   = flag.String("targets", "", "comma-separated fleet of pynamic-serve base URLs, driven round-robin with failover (wins over -target)")
		mode      = flag.String("mode", "closed", `loop model: "closed" (fixed workers) or "open" (fixed arrival rate)`)
		duration  = flag.Duration("duration", 2*time.Second, "wall-clock budget per cell (ignored when -requests > 0)")
		requests  = flag.Int("requests", 0, "fixed request count per cell (0 = duration-bounded)")
		concList  = flag.String("concurrency", "4", "comma-separated closed-loop worker counts (sweep axis)")
		skewList  = flag.String("skew", "1.1", "comma-separated Zipfian exponents over the spec mix (sweep axis)")
		cacheList = flag.String("cache-size", "8", "comma-separated workload-cache capacities (sweep axis; applied in-process, recorded against -target)")
		rate      = flag.Float64("rate", 100, "open-loop arrival rate, requests/sec")
		specs     = flag.Int("specs", 16, "request-mix size: number of distinct specs, Zipf-ranked")
		seed      = flag.Uint64("seed", 1, "schedule + mix seed (same seed → byte-identical request schedule)")
		cacheDir  = flag.String("cache-dir", "", "persistent store directory for in-process engines (shared across cells; ignored with -target)")
		out       = flag.String("out", "runs", `artifact root ("" disables artifacts)`)
		poll      = flag.Duration("poll", 5*time.Millisecond, "HTTP status-poll interval")
	)
	flag.Parse()

	base := loadgen.CellConfig{
		Mode:       *mode,
		RatePerSec: *rate,
		Duration:   *duration,
		Requests:   *requests,
		Specs:      *specs,
		Seed:       *seed,
	}
	if *mode == loadgen.ModeClosed {
		base.RatePerSec = 0
	}
	sc := loadgen.SweepConfig{
		Base:          base,
		Concurrencies: mustInts("concurrency", *concList),
		Skews:         mustFloats("skew", *skewList),
		CacheSizes:    mustInts("cache-size", *cacheList),
		TargetURL:     *target,
		CacheDir:      *cacheDir,
		PollInterval:  *poll,
	}
	if *targets != "" {
		for _, u := range strings.Split(*targets, ",") {
			if u = strings.TrimSpace(u); u != "" {
				sc.TargetURLs = append(sc.TargetURLs, u)
			}
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	targetName := *target
	if len(sc.TargetURLs) > 0 {
		targetName = fmt.Sprintf("%d-replica fleet %s", len(sc.TargetURLs), strings.Join(sc.TargetURLs, ","))
	}
	if targetName == "" {
		targetName = "in-process engine"
	}
	fmt.Printf("pynamic-load: %d cells (%s loop) against %s, %d-spec mix, seed %d\n",
		sc.Cells(), *mode, targetName, *specs, *seed)
	res, err := loadgen.RunSweep(ctx, sc, func(format string, args ...any) {
		fmt.Printf("pynamic-load: "+format+"\n", args...)
	})
	if err != nil {
		fatal(err)
	}

	if *out != "" {
		dir := filepath.Join(*out, strings.ReplaceAll(res.Stamp, ":", "-"), "loadgen")
		files, err := loadgen.WriteRun(dir, res)
		if err != nil {
			fatal(err)
		}
		for _, f := range files {
			fmt.Println("pynamic-load: wrote", f)
		}
	}
}

func mustInts(flagName, csv string) []int {
	var out []int
	for _, part := range strings.Split(csv, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		v, err := strconv.Atoi(part)
		if err != nil {
			fatal(fmt.Errorf("-%s: %q is not an integer", flagName, part))
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		fatal(fmt.Errorf("-%s: empty list", flagName))
	}
	return out
}

func mustFloats(flagName, csv string) []float64 {
	var out []float64
	for _, part := range strings.Split(csv, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		v, err := strconv.ParseFloat(part, 64)
		if err != nil {
			fatal(fmt.Errorf("-%s: %q is not a number", flagName, part))
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		fatal(fmt.Errorf("-%s: empty list", flagName))
	}
	return out
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "pynamic-load:", err)
	os.Exit(1)
}
