package experiments

import (
	"fmt"
	"math"

	"repro/internal/driver"
	"repro/internal/report"
	"repro/internal/runner"
)

// The S1/S2/S3 sweeps and A1/A2/A3 ablations are implemented as
// runner experiments (see cells.go and registry.go). The grid builders
// below give a caller (cmd/pynamic-sweep) the same grids the registry
// runs, and the result shapers turn the matrix's aggregates back into
// the studies' tables.

// SweepPoint is one measurement in a scaling study.
type SweepPoint struct {
	X          float64 // swept parameter value
	StartupSec float64
	ImportSec  float64
	VisitSec   float64
	TotalSec   float64
}

// SweepResult is one scaling study (S1/S2).
type SweepResult struct {
	Name   string
	XLabel string
	Mode   driver.BuildMode
	Points []SweepPoint
}

// Render formats the sweep as a table (one row per point).
func (r *SweepResult) Render() string {
	t := &report.Table{
		Title:  r.Name,
		Header: []string{r.XLabel, "startup", "import", "visit", "total"},
	}
	for _, p := range r.Points {
		t.AddRow(fmt.Sprintf("%.0f", p.X),
			fmt.Sprintf("%.2f", p.StartupSec),
			fmt.Sprintf("%.2f", p.ImportSec),
			fmt.Sprintf("%.2f", p.VisitSec),
			fmt.Sprintf("%.2f", p.TotalSec))
	}
	return t.Render()
}

func sweepPoints(aggs []runner.Aggregate, xKey string) []SweepPoint {
	var pts []SweepPoint
	for _, a := range aggs {
		pts = append(pts, SweepPoint{
			X:          a.Params.Float(xKey),
			StartupSec: a.Stats["startup_sec"].Mean,
			ImportSec:  a.Stats["import_sec"].Mean,
			VisitSec:   a.Stats["visit_sec"].Mean,
			TotalSec:   a.Stats["total_sec"].Mean,
		})
	}
	return pts
}

// DLLCountGrid returns the S1 grid over the given DSO counts (nil =
// the registry defaults) for one build mode. S1 (§V future work) is
// "the scaling characteristics of Pynamic with respect to the number
// of DLLs": the DSO count grows at fixed per-DSO size, and import cost
// should grow superlinearly because each added DSO both adds lookups
// and deepens every search scope.
func DLLCountGrid(counts []int, mode driver.BuildMode) []runner.Params {
	return dllCountGrid(counts, []string{ModeKey(mode)})
}

// SweepDLLCountResult shapes dllcount aggregates into the S1 result.
func SweepDLLCountResult(mode driver.BuildMode, aggs []runner.Aggregate) *SweepResult {
	return &SweepResult{
		Name:   "S1: scaling vs number of DLLs (" + mode.String() + " build)",
		XLabel: "DSOs",
		Mode:   mode,
		Points: sweepPoints(aggs, "dsos"),
	}
}

// DLLSizeGrid returns the S2 grid over the given per-DSO function
// counts (nil = the registry defaults) for one build mode. S2 (§V
// future work) is scaling "with respect to ... the size of the DLLs":
// fixed DSO count, growing functions per DSO.
func DLLSizeGrid(funcCounts []int, mode driver.BuildMode) []runner.Params {
	return dllSizeGrid(funcCounts, []string{ModeKey(mode)})
}

// SweepDLLSizeResult shapes dllsize aggregates into the S2 result.
func SweepDLLSizeResult(mode driver.BuildMode, aggs []runner.Aggregate) *SweepResult {
	return &SweepResult{
		Name:   "S2: scaling vs DLL size (" + mode.String() + " build)",
		XLabel: "functions per DSO",
		Mode:   mode,
		Points: sweepPoints(aggs, "funcs"),
	}
}

// NFSPoint is one node count in the S3 study.
type NFSPoint struct {
	Nodes           int
	IndependentSecs float64 // every node reads every DSO from NFS
	CollectiveSecs  float64 // one fetch + interconnect broadcast (§V)
}

// NFSSweepResult is the S3 study.
type NFSSweepResult struct {
	Points []NFSPoint
}

// NFSGrid returns the S3 grid over the given node counts (nil = the
// registry defaults) at the given workload scale divisor (<1 = the
// default). S3 (§V conclusion) compares per-node independent loading
// of the generated DSO set from NFS against the proposed
// collective-open extension as the node count grows.
func NFSGrid(nodeCounts []int, scaleDiv int) []runner.Params {
	return nfsGrid(nodeCounts, scaleDiv)
}

// NFSSweepResultFrom shapes nfs aggregates into the S3 result.
func NFSSweepResultFrom(aggs []runner.Aggregate) *NFSSweepResult {
	res := &NFSSweepResult{}
	for _, a := range aggs {
		res.Points = append(res.Points, NFSPoint{
			Nodes:           a.Params.Int("nodes"),
			IndependentSecs: a.Stats["independent_sec"].Mean,
			CollectiveSecs:  a.Stats["collective_sec"].Mean,
		})
	}
	return res
}

// Render formats the NFS sweep.
func (r *NFSSweepResult) Render() string {
	t := &report.Table{
		Title:  "S3: NFS DLL loading vs collective open (seconds to stage all DSOs)",
		Header: []string{"nodes", "independent NFS", "collective open", "speedup"},
	}
	for _, p := range r.Points {
		t.AddRow(fmt.Sprintf("%d", p.Nodes),
			fmt.Sprintf("%.2f", p.IndependentSecs),
			fmt.Sprintf("%.2f", p.CollectiveSecs),
			fmt.Sprintf("%.1fx", report.Ratio(p.IndependentSecs, p.CollectiveSecs)))
	}
	t.AddNote("the paper's §V motivation: NFS cannot serve extreme-scale DLL storms" +
		" without collective-open extensions")
	return t.Render()
}

// Checks verifies the S3 shape: collective wins and its advantage grows
// with node count.
func (r *NFSSweepResult) Checks() []report.ShapeCheck {
	if len(r.Points) < 2 {
		return nil
	}
	first := r.Points[0]
	last := r.Points[len(r.Points)-1]
	firstSpeed := report.Ratio(first.IndependentSecs, first.CollectiveSecs)
	lastSpeed := report.Ratio(last.IndependentSecs, last.CollectiveSecs)
	return []report.ShapeCheck{
		{
			Name: "collective open wins at scale",
			Pass: lastSpeed > 1,
			Got:  fmt.Sprintf("%.1fx at %d nodes", lastSpeed, last.Nodes),
		},
		{
			Name: "collective advantage grows with node count",
			Pass: lastSpeed > firstSpeed,
			Got: fmt.Sprintf("%.1fx at %d nodes -> %.1fx at %d nodes",
				firstSpeed, first.Nodes, lastSpeed, last.Nodes),
		},
	}
}

// ---------- Ablations ----------

// CoveragePoint is one A2 measurement.
type CoveragePoint struct {
	Coverage     float64
	VisitSec     float64
	FuncsVisited uint64
}

// CoverageGrid returns the A2 grid over the given coverage fractions
// (nil = the registry defaults) at the given workload scale divisor
// (<1 = the default). A2 (§V future work): "Allowing Pynamic to be
// configured with a specified code coverage".
func CoverageGrid(fractions []float64, scaleDiv int) []runner.Params {
	return coverageGrid(fractions, scaleDiv)
}

// CoveragePointsFrom shapes ablate-coverage aggregates into A2 points.
func CoveragePointsFrom(aggs []runner.Aggregate) []CoveragePoint {
	var out []CoveragePoint
	for _, a := range aggs {
		out = append(out, CoveragePoint{
			Coverage:     a.Params.Float("coverage"),
			VisitSec:     a.Stats["visit_sec"].Mean,
			FuncsVisited: uint64(math.Round(a.Stats["funcs_visited"].Mean)),
		})
	}
	return out
}
