// Package loadgen is the million-user load harness: it replays seeded,
// Zipfian-distributed Spec traffic against a Pynamic service (a live
// pynamic-serve instance over HTTP) or directly against an in-process
// Engine, and measures what the serving stack actually delivers under
// load — latency percentiles, throughput, error rate, and the cache /
// dedup hit ratios the content-addressed Spec design exists to win.
//
// The harness is organized around three ideas:
//
//   - A request MIX: a fixed set of K distinct Specs (identified by
//     their canonical content hashes), ranked by popularity and
//     sampled from a Zipfian distribution with exponent s. Skewed
//     popularity is what makes caches and spec dedup matter; s is a
//     sweep knob.
//
//   - A deterministic SCHEDULE: the sequence of mix indices is a pure
//     function of (seed, skew, mix size) through the repository's
//     stable xrand generator, so the same flags replay the same
//     traffic forever (golden-tested byte-identical). Wall-clock
//     latencies of course vary run to run; the *requests* do not.
//
//   - A sweep of CELLS: concurrency × spec-mix skew × workload-cache
//     size, closed-loop (C workers, next request when the previous
//     completes) or open-loop (fixed arrival rate, unbounded
//     outstanding requests). Each cell brackets the run with two
//     counter snapshots (the service's /v1/metrics, or Engine.Stats
//     in-process) and reports the deltas.
//
// Results land under runs/<stamp>/loadgen/ as sweep.json + cells.csv
// (see WriteRun and cmd/pynamic-load). The harness drives traffic and
// checks what the system counted; the repository's performance record
// is the perfbench benchmark, not a loadgen artifact.
package loadgen

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"repro/internal/xrand"

	pynamic "repro"
)

// MixEntry is one spec in the request mix: the parsed document, its
// canonical content hash (the service-side job key), and the exact
// bytes an HTTP target POSTs.
type MixEntry struct {
	// Name labels the entry ("mix-00", "mix-01", ...), most popular
	// first: entry i has Zipfian rank i+1.
	Name string `json:"name"`
	// Hash is the spec's canonical content hash.
	Hash string `json:"hash"`
	// Spec is the parsed document (what an in-process target runs).
	Spec pynamic.Spec `json:"spec"`
	// Body is the canonical JSON an HTTP target submits.
	Body []byte `json:"-"`
}

// Mix is the ranked request mix.
type Mix []MixEntry

// mixSchedule seeds the schedule stream; a distinct label keeps it
// decorrelated from every other consumer of the run seed.
const mixScheduleLabel = 0x10adbeef

// DefaultMix builds the standard K-spec mix: tiny job-kind specs over
// the LLNL profile, heavily scaled down so one request costs
// milliseconds of host time, with the generator seed varied per entry
// so every entry owns a distinct workload (distinct content hash,
// distinct workload-cache entry) and the build mode cycling through
// the paper's three rows for flavor diversity. The mix is a pure
// function of (seed, k).
func DefaultMix(seed uint64, k int) (Mix, error) {
	if k <= 0 {
		return nil, fmt.Errorf("loadgen: mix size %d <= 0", k)
	}
	modes := []string{"vanilla", "link", "link-bind"}
	mix := make(Mix, 0, k)
	for i := 0; i < k; i++ {
		s := pynamic.Spec{
			Version: pynamic.SpecVersion,
			Kind:    pynamic.SpecJob,
			Name:    fmt.Sprintf("mix-%02d", i),
			Seed:    seed + uint64(i) + 1, // +1: seed 0 would mean "profile default"
			Workload: &pynamic.WorkloadSpec{
				Profile:  "llnl",
				ScaleDiv: 140,
				FuncsDiv: 40,
			},
			Build: &pynamic.BuildSpec{Mode: modes[i%len(modes)]},
			Topology: &pynamic.TopologySpec{
				Tasks: 2 + 2*(i%2), // 2 or 4 tasks
				Ranks: 1,
			},
		}
		hash, err := s.Hash()
		if err != nil {
			return nil, fmt.Errorf("loadgen: mix entry %d: %w", i, err)
		}
		body, err := s.Canonical()
		if err != nil {
			return nil, fmt.Errorf("loadgen: mix entry %d: %w", i, err)
		}
		mix = append(mix, MixEntry{Name: s.Name, Hash: hash, Spec: s, Body: body})
	}
	return mix, nil
}

// Zipf samples ranks 1..K with probability proportional to 1/rank^s,
// via inverse-CDF lookup over a precomputed table. s == 0 degenerates
// to uniform; larger s concentrates traffic on the head of the mix.
type Zipf struct {
	cdf []float64
}

// NewZipf builds the sampler for k ranks at exponent s (s >= 0).
func NewZipf(k int, s float64) (*Zipf, error) {
	if k <= 0 {
		return nil, fmt.Errorf("loadgen: zipf over %d ranks", k)
	}
	if s < 0 {
		return nil, fmt.Errorf("loadgen: zipf exponent %v < 0", s)
	}
	cdf := make([]float64, k)
	var total float64
	for r := 1; r <= k; r++ {
		total += 1 / math.Pow(float64(r), s)
		cdf[r-1] = total
	}
	for i := range cdf {
		cdf[i] /= total
	}
	cdf[k-1] = 1 // guard against rounding leaving the tail unreachable
	return &Zipf{cdf: cdf}, nil
}

// Sample draws one 0-based rank index from rng.
func (z *Zipf) Sample(rng *xrand.RNG) int {
	u := rng.Float64()
	return sort.SearchFloat64s(z.cdf, u)
}

// Schedule returns the first n mix indices of the deterministic
// request stream for (seed, k, skew): the same arguments yield the
// same slice on every platform and every run. This is the harness's
// reproducibility contract (golden-tested in schedule_test.go).
func Schedule(seed uint64, k int, skew float64, n int) ([]int, error) {
	z, err := NewZipf(k, skew)
	if err != nil {
		return nil, err
	}
	rng := xrand.New(seed).Split(mixScheduleLabel)
	out := make([]int, n)
	for i := range out {
		out[i] = z.Sample(rng)
	}
	return out, nil
}

// scheduler hands out the deterministic request stream to concurrent
// workers: the sequence of indices is fixed by (seed, k, skew); only
// which worker consumes which position varies with scheduling.
type scheduler struct {
	mu   sync.Mutex
	rng  *xrand.RNG
	zipf *Zipf
	next int
}

func newScheduler(seed uint64, k int, skew float64) (*scheduler, error) {
	z, err := NewZipf(k, skew)
	if err != nil {
		return nil, err
	}
	return &scheduler{rng: xrand.New(seed).Split(mixScheduleLabel), zipf: z}, nil
}

// Next returns the stream position and the mix index at it.
func (s *scheduler) Next() (pos, idx int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	pos = s.next
	s.next++
	return pos, s.zipf.Sample(s.rng)
}
