package job

import (
	"context"
	"encoding/json"
	"os"
	"reflect"
	"testing"

	"repro/internal/dynld"
	"repro/internal/fsim"
	"repro/internal/pygen"
	"repro/internal/pyvm"
)

// legacyMetrics is the pre-refactor driver output shape, as
// captured in testdata/driver_golden.json BEFORE the monolithic driver
// was decomposed into this package. Regenerate with
// `go run ./internal/job/goldengen` only when the simulation model
// itself changes deliberately.
type legacyMetrics struct {
	Mode       int
	StartupSec float64
	ImportSec  float64
	VisitSec   float64
	MPISec     float64

	Startup PhaseCounters
	Import  PhaseCounters
	Visit   PhaseCounters

	Loader dynld.Stats
	VM     pyvm.Stats
	FS     fsim.Stats

	ModulesImported int
	FuncsVisited    uint64
}

func loadGolden(t *testing.T) map[string]legacyMetrics {
	t.Helper()
	raw, err := os.ReadFile("testdata/driver_golden.json")
	if err != nil {
		t.Fatal(err)
	}
	var golden map[string]legacyMetrics
	if err := json.Unmarshal(raw, &golden); err != nil {
		t.Fatal(err)
	}
	if len(golden) != 3 {
		t.Fatalf("golden has %d modes, want 3", len(golden))
	}
	return golden
}

// TestGoldenRank0Equivalence is the refactor's central contract: for a
// homogeneous job, rank 0's per-phase metrics from the job engine are
// bit-identical to the pre-refactor monolithic driver output at
// the same seed, for every build mode.
func TestGoldenRank0Equivalence(t *testing.T) {
	golden := loadGolden(t)
	cfg := pygen.LLNLModel().Scaled(20).ScaledFuncs(8) // must match goldengen
	w, err := pygen.GenerateCtx(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []Mode{Vanilla, Link, LinkBind} {
		want, ok := golden[mode.String()]
		if !ok {
			t.Fatalf("golden missing mode %s", mode)
		}
		// 1-rank job: the legacy extrapolation path.
		res, err := RunCtx(context.Background(), Config{Mode: mode, Workload: w, NTasks: 8, Ranks: 1, Seed: cfg.Seed})
		if err != nil {
			t.Fatal(err)
		}
		compareToGolden(t, mode.String()+"/1-rank", res.Ranks[0], res.MPISec, want)

		// Multi-rank homogeneous job, parallel ranks: rank 0 must still
		// match the golden exactly — forks, the shared index, and
		// goroutine scheduling change nothing.
		res, err = RunCtx(context.Background(), Config{Mode: mode, Workload: w, NTasks: 8, Ranks: 8,
			Seed: cfg.Seed, Workers: 4})
		if err != nil {
			t.Fatal(err)
		}
		compareToGolden(t, mode.String()+"/8-rank", res.Ranks[0], res.MPISec, want)
	}
}

func compareToGolden(t *testing.T, label string, r RankMetrics, mpiSec float64, want legacyMetrics) {
	t.Helper()
	got := legacyMetrics{
		Mode:            want.Mode, // identity column, not a measurement
		StartupSec:      r.StartupSec,
		ImportSec:       r.ImportSec,
		VisitSec:        r.VisitSec,
		MPISec:          mpiSec,
		Startup:         r.Startup,
		Import:          r.Import,
		Visit:           r.Visit,
		Loader:          r.Loader,
		VM:              r.VM,
		FS:              r.FS,
		ModulesImported: r.ModulesImported,
		FuncsVisited:    r.FuncsVisited,
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("%s: rank 0 diverges from pre-refactor driver golden:\ngot:  %+v\nwant: %+v",
			label, got, want)
	}
}
