package memsim

import "math"

// Analytic is the fast memory model: an O(1)-per-event stack-distance
// approximation of the same hierarchy the Detailed model simulates
// line-by-line. It exists because the paper-scale configuration (280
// modules + 215 utility libraries averaging 1850 functions, > 2 GB of
// ELF sections) produces billions of line touches — Table II reports
// 6.3 *billion* L1-D misses for the Vanilla import phase alone — which
// is intractable to replay line-accurately for every experiment.
//
// Approximation: each cache level keeps a fill counter (lines brought
// in) and a last-touch record per region. For LRU, a line hits iff
// fewer than C distinct lines entered the cache since its previous use;
// we estimate that from the level's fill delta. Regions are identified
// by their page-aligned base address, which is stable because simulated
// section layout never moves (except under the ASLR option, which
// changes bases once at load time).
type Analytic struct {
	cfg Config

	levels [3]*analyticLevel // l1i, l1d, l2
	ctr    Counters

	// Fractional miss remainders so expected values accumulate without
	// systematic rounding bias (deterministically, no RNG).
	carry [3]struct{ l1, l2 float64 }
}

const (
	levelL1I = 0
	levelL1D = 1
	levelL2  = 2
)

type analyticLevel struct {
	capLines uint64
	fills    uint64 // total lines installed at this level
	// lastFill records, per region, the fill counter at the region's
	// previous use. It lives in an open-addressed flat table rather
	// than a map: one find-or-insert per access serves both the read
	// and the write-back, and in steady state it never allocates (see
	// regionTable).
	lastFill *regionTable
}

func newAnalyticLevel(size, lineSize uint64) *analyticLevel {
	return &analyticLevel{
		capLines: size / lineSize,
		lastFill: newRegionTable(),
	}
}

// NewAnalytic builds the fast model. Invalid configs panic (programmer
// error), matching NewDetailed.
func NewAnalytic(cfg Config) *Analytic {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	a := &Analytic{cfg: cfg}
	a.levels[levelL1I] = newAnalyticLevel(cfg.L1ISize, cfg.LineSize)
	a.levels[levelL1D] = newAnalyticLevel(cfg.L1DSize, cfg.LineSize)
	a.levels[levelL2] = newAnalyticLevel(cfg.L2Size, cfg.LineSize)
	return a
}

var _ Memory = (*Analytic)(nil)

func (a *Analytic) lines(size uint64) uint64 {
	return (size + a.cfg.LineSize - 1) / a.cfg.LineSize
}

// regionKey identifies a region at 2 KiB granularity: fine enough that
// distinct functions' text spans and distinct data lines don't alias
// into one "warm" region, coarse enough that the tracking maps stay
// bounded (a few hundred thousand keys at full paper scale).
func regionKey(base uint64) uint64 { return base >> 11 }

// streamMisses estimates misses for a one-pass sequential touch of L
// lines of region key at one level, then updates that level's state.
func (lv *analyticLevel) streamMisses(key, L uint64) float64 {
	idx, seen := lv.lastFill.slot(key)
	last := lv.lastFill.vals[idx]
	var miss float64
	switch {
	case !seen:
		miss = float64(L) // cold: every line misses
	default:
		fillSince := lv.fills - last
		// Lines of the region survive if the cache hasn't turned over:
		// survivors ≈ clamp(capacity - intervening fills, 0, L).
		var surv uint64
		if fillSince < lv.capLines {
			surv = lv.capLines - fillSince
			if surv > L {
				surv = L
			}
		}
		// A region larger than the cache can't retain more than capLines
		// and in a pure streaming pass evicts itself.
		if L > lv.capLines {
			surv = 0
		}
		miss = float64(L - surv)
	}
	lv.fills += uint64(miss)
	lv.lastFill.vals[idx] = lv.fills
	return miss
}

// probeDistinct is the expected number of distinct lines n uniform
// single-line probes touch in an S-line region.
func probeDistinct(S, n uint64) float64 {
	distinct := float64(S) * (1 - math.Exp(-float64(n)/float64(S)))
	if distinct > float64(n) {
		distinct = float64(n)
	}
	return distinct
}

// probeMisses estimates misses for n uniform single-line probes into an
// S-line region that touch distinct lines (probeDistinct), then updates
// level state.
func (lv *analyticLevel) probeMisses(key, S, n uint64, distinct float64) float64 {
	// Steady-state hit probability: fraction of the region resident.
	hitP := 1.0
	if S > lv.capLines {
		hitP = float64(lv.capLines) / float64(S)
	}
	idx, seen := lv.lastFill.slot(key)
	last := lv.lastFill.vals[idx]
	var miss float64
	if !seen || lv.fills-last >= lv.capLines {
		// Cold (or fully evicted): first touches of distinct lines all
		// miss; repeats hit per steady-state probability.
		miss = distinct + (float64(n)-distinct)*(1-hitP)
	} else {
		miss = float64(n) * (1 - hitP)
	}
	lv.fills += uint64(miss)
	lv.lastFill.vals[idx] = lv.fills
	return miss
}

// commit converts an expected (float) L1/L2 miss pair into counter
// increments with carried remainders, per access kind.
func (a *Analytic) commit(kind Kind, nLines uint64, l1Miss, l2Miss float64) {
	a.ctr.Lines[kind] += nLines
	if l2Miss > l1Miss {
		l2Miss = l1Miss // L2 only sees L1 misses
	}
	c := &a.carry[kind]
	c.l1 += l1Miss
	c.l2 += l2Miss
	w1 := uint64(c.l1)
	w2 := uint64(c.l2)
	c.l1 -= float64(w1)
	c.l2 -= float64(w2)
	if kind == IFetch {
		a.ctr.L1IMiss += w1
	} else {
		a.ctr.L1DMiss += w1
	}
	a.ctr.L2Miss += w2
}

func (a *Analytic) l1For(kind Kind) *analyticLevel {
	if kind == IFetch {
		return a.levels[levelL1I]
	}
	return a.levels[levelL1D]
}

// Touch implements Memory.
func (a *Analytic) Touch(kind Kind, addr, size uint64) {
	if size == 0 {
		return
	}
	L := a.lines(size + addr%a.cfg.LineSize)
	key := regionKey(addr)
	m1 := a.l1For(kind).streamMisses(key, L)
	m2 := a.levels[levelL2].streamMisses(key, L)
	a.commit(kind, L, m1, m2)
}

// Stream implements Memory.
func (a *Analytic) Stream(kind Kind, base, size uint64) { a.Touch(kind, base, size) }

// Probe implements Memory.
func (a *Analytic) Probe(kind Kind, base, size uint64, n uint64) {
	if size == 0 || n == 0 {
		return
	}
	S := a.lines(size)
	key := regionKey(base)
	distinct := probeDistinct(S, n) // the same for both levels
	m1 := a.l1For(kind).probeMisses(key, S, n, distinct)
	m2 := a.levels[levelL2].probeMisses(key, S, n, distinct)
	a.commit(kind, n, m1, m2)
}

// Instructions implements Memory.
func (a *Analytic) Instructions(n uint64) { a.ctr.Instructions += n }

// Counters implements Memory.
func (a *Analytic) Counters() Counters { return a.ctr }

// Cycles implements Memory.
func (a *Analytic) Cycles() uint64 { return CyclesFor(a.cfg, a.ctr) }

// Reset implements Memory.
func (a *Analytic) Reset() {
	a.ctr = Counters{}
	for i, lv := range a.levels {
		a.levels[i] = newAnalyticLevel(lv.capLines*a.cfg.LineSize, a.cfg.LineSize)
	}
	a.carry = [3]struct{ l1, l2 float64 }{}
}

// Config returns the hierarchy configuration.
func (a *Analytic) Config() Config { return a.cfg }
