package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// forEach calls fn(0..n-1) from workers goroutines, each taking the next
// index when it finishes the previous one (a closed loop), and returns
// when all are done.
func forEach(workers, n int, fn func(i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// usage is a snapshot of the process's resource counters and the
// host's CPU ticks.
type usage struct {
	at         time.Time
	cpu        float64 // user+sys seconds
	alloc      float64 // heap bytes allocated
	gcCycles   float64
	gcCPU      float64 // seconds
	hostTicks  float64
	stealTicks float64
}

// stealPct is the share of the host's CPU time between two snapshots
// that the hypervisor gave to other guests.
func stealPct(a, b usage) float64 {
	if b.hostTicks <= a.hostTicks {
		return 0
	}
	return 100 * (b.stealTicks - a.stealTicks) / (b.hostTicks - a.hostTicks)
}

var runtimeSamples = []string{
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
}

func readUsage() usage {
	u := usage{at: time.Now()}
	u.hostTicks, u.stealTicks = cpuTicks()
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		u.cpu = float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
	}
	s := make([]metrics.Sample, len(runtimeSamples))
	for i, name := range runtimeSamples {
		s[i].Name = name
	}
	metrics.Read(s)
	val := func(v metrics.Value) float64 {
		switch v.Kind() {
		case metrics.KindUint64:
			return float64(v.Uint64())
		case metrics.KindFloat64:
			return v.Float64()
		}
		return 0
	}
	u.alloc, u.gcCycles, u.gcCPU = val(s[0].Value), val(s[1].Value), val(s[2].Value)
	return u
}

// phase is one measured pass over a plan's ops, run as consecutive
// segments with a barrier between them, so that the end-to-end metrics
// can leave out the segments the host sped up or slowed down most.
type phase struct {
	// lat is each op's latency in seconds; +Inf for a failed op, which
	// misses any latency limit.
	lat              []float64
	failed, mismatch int
	segs             []segment
}

// segment is a contiguous run of a phase's ops.
type segment struct {
	lo, hi        int
	failed        int
	before, after usage
}

func (sg segment) wall() float64 { return sg.after.at.Sub(sg.before.at).Seconds() }

func (ph *phase) before() usage { return ph.segs[0].before }
func (ph *phase) after() usage  { return ph.segs[len(ph.segs)-1].after }

// measure runs p's ops against sys from p.clients closed-loop clients,
// in nseg segments. Each op's clock stops before its result is
// compared with the reference; a failed op is never retried.
func measure(ctx context.Context, sys system, p *plan, refs []reference, tr *tracer, nseg int) *phase {
	n := len(p.ops)
	ph := &phase{lat: make([]float64, n)}
	var mismatch, logged atomic.Int64
	for k := 0; k < nseg; k++ {
		seg := segment{lo: k * n / nseg, hi: (k + 1) * n / nseg}
		var failed atomic.Int64
		seg.before = readUsage()
		forEach(p.clients, seg.hi-seg.lo, func(j int) {
			i := seg.lo + j
			o := p.ops[i]
			root := tr.begin("op", i, -1)
			t := time.Now()
			got, err := sys.do(ctx, i, o, tr, root)
			d := time.Since(t)
			tr.end(root)
			ph.lat[i] = d.Seconds()
			if err == nil && !bytes.Equal(got, refs[o.spec].result) {
				err = fmt.Errorf("result differs from the reference (%d bytes, want %d)", len(got), len(refs[o.spec].result))
				mismatch.Add(1)
			}
			if err != nil {
				ph.lat[i] = math.Inf(1)
				failed.Add(1)
				if logged.Add(1) <= 5 {
					fmt.Fprintf(os.Stderr, "perfbench: op %d (spec %d) failed: %v\n", i, o.spec, err)
				}
				return
			}
			if tr != nil {
				sys.sideTrace(i, o, got, tr)
			}
		})
		seg.after = readUsage()
		seg.failed = int(failed.Load())
		ph.failed += seg.failed
		ph.segs = append(ph.segs, seg)
	}
	ph.mismatch = int(mismatch.Load())
	return ph
}

// quantile is the nearest-rank q-quantile of sorted, and how many
// samples lie beyond it.
func quantile(sorted []float64, q float64) (float64, int) {
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i], len(sorted) - 1 - i
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m, _ := quantile(s, 0.5)
	return m
}

// Peak RSS. Writing 5 to clear_refs resets the kernel's high-water mark
// (VmHWM) to the current RSS, so the reference computation's footprint
// does not count.
func resetPeakRSS() bool {
	runtime.GC()
	debug.FreeOSMemory()
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) == nil
}

func peakRSSMiB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024, err
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// cpuTicks reads the host's total and steal CPU time from /proc/stat,
// in clock ticks.
func cpuTicks() (total, steal float64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	for i, f := range fields[1:] {
		v, _ := strconv.ParseFloat(f, 64)
		if i < 8 { // user..steal; guest time is already in user
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return total, steal
}

// hostInfo is the part of a run's record that describes where and how
// it ran.
type hostInfo struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	SourceSHA  string `json:"source_sha256"`
	CPUModel   string `json:"cpu_model"`
}

func readHost() hostInfo {
	h := hostInfo{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     "unknown",
		SourceSHA:  sourceDigest("."),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		modified := ""
		for _, s := range bi.Settings {
			switch {
			case s.Key == "vcs.revision":
				h.Commit = s.Value
			case s.Key == "vcs.modified" && s.Value == "true":
				modified = "+modified"
			}
		}
		h.Commit += modified
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	return h
}

// sourceDigest hashes the names and contents of the Go sources and
// module files under root, so a run from a checkout without git history
// still names the code it measured.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		fmt.Fprintf(h, "%s\n", filepath.ToSlash(path))
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))
}
