package main

import (
	"context"
	"encoding/json"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// tinyOps are op counts small enough for a unit test and large enough
// that one failed op is not the p90.
var tinyOps = map[string]int{wKernel: 12, wCold: 24, wServe: 12}

func tinyRun(t *testing.T, workload string, trace bool, corrupt func(p *plan, refs []reference)) *result {
	t.Helper()
	ctx := context.Background()
	p, err := newPlan(workload, 3, tinyOps[workload])
	if err != nil {
		t.Fatal(err)
	}
	refs, err := computeReferences(ctx, p)
	if err != nil {
		t.Fatal(err)
	}
	if corrupt != nil {
		corrupt(p, refs)
	}
	cfg := config{workload: workload, seed: 3, ops: len(p.ops), trace: trace, setups: 1, segments: 1, trim: 0, workDir: t.TempDir()}
	_, res, err := execute(ctx, cfg, p, refs)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestSameSeedSameOps(t *testing.T) {
	for _, w := range []string{wKernel, wCold, wServe} {
		n := opCount(w, 1, 15)
		a, err := newPlan(w, 7, n)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := newPlan(w, 7, n)
		c, _ := newPlan(w, 8, n)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: two plans from seed 7 differ", w)
		}
		if reflect.DeepEqual(a.specs, c.specs) {
			t.Errorf("%s: seeds 7 and 8 gave the same specs", w)
		}
		if len(a.ops) != n {
			t.Errorf("%s: %d ops, want %d", w, len(a.ops), n)
		}
	}
}

// benchmarkJSON is the part of BENCHMARK.json the harness must agree with.
type benchmarkJSON struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit, Better string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit, Better string
	} `json:"per_layer"`
}

func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, defs []metricDef, got []struct{ Name, Unit, Better string }) {
		var want []struct{ Name, Unit, Better string }
		for _, d := range defs {
			want = append(want, struct{ Name, Unit, Better string }{d.name, d.unit, d.better})
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("BENCHMARK.json %s = %v, harness declares %v", kind, got, want)
		}
	}
	check("end_to_end", endToEnd, b.EndToEnd)
	check("per_layer", perLayer, b.PerLayer)
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
		if _, err := newPlan(w.Name, 1, tinyOps[w.Name]); err != nil {
			t.Errorf("workload %s: %v", w.Name, err)
		}
	}
	if want := []string{wKernel, wCold, wServe}; !reflect.DeepEqual(names, want) {
		t.Errorf("BENCHMARK.json workloads %v, want %v", names, want)
	}
}

// TestPrintedMetricsAreDeclared runs every workload tiny, untraced and
// traced, and checks the printed metric names against the catalog
// (which the test above ties to BENCHMARK.json).
func TestPrintedMetricsAreDeclared(t *testing.T) {
	for _, w := range []string{wKernel, wCold, wServe} {
		for _, trace := range []bool{false, true} {
			res := tinyRun(t, w, trace, nil)
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			var got, want []string
			for name, m := range res.Metrics {
				got = append(got, name+" "+m.Unit)
			}
			for _, d := range defs {
				want = append(want, d.name+" "+d.unit)
			}
			sort.Strings(got)
			sort.Strings(want)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s trace=%v printed %v, want %v", w, trace, got, want)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w, trace, res.Correct, res.Attempted, res.Failed)
			}
		}
	}
}

// TestCorruptReferenceFailsOneOp corrupts the reference of one op's
// spec, after pointing the plan's other uses of that spec elsewhere,
// and expects exactly that op to fail.
func TestCorruptReferenceFailsOneOp(t *testing.T) {
	for _, w := range []string{wKernel, wCold, wServe} {
		res := tinyRun(t, w, false, func(p *plan, refs []reference) {
			victim := 0
			for i, o := range p.ops {
				if o.write { // a serve write's spec is fresh, used once
					victim = i
					break
				}
			}
			k := p.ops[victim].spec
			for i := range p.ops {
				if i != victim && p.ops[i].spec == k {
					p.ops[i].spec = p.warm[(k+1)%len(p.warm)]
				}
			}
			refs[k].result = []byte(strings.Replace(string(refs[k].result), "0", "1", 1))
		})
		if res.Failed != 1 || res.Correct || res.Attempted != tinyOps[w] {
			t.Errorf("%s: correct=%v attempted=%d failed=%d, want false %d 1", w, res.Correct, res.Attempted, res.Failed, tinyOps[w])
		}
	}
}

func TestTooFewSamplesBeyondP90Fails(t *testing.T) {
	ph := &phase{lat: make([]float64, 99)}
	for i := range ph.lat {
		ph.lat[i] = float64(i)
	}
	ph.segs = []segment{{lo: 0, hi: 99}}
	if _, _, _, err := endToEndValues(ph, 0, []float64{1}, 1, 10); err == nil {
		t.Error("99 samples (9 beyond p90) passed the 10-sample guard")
	}
	ph.lat = append(ph.lat, 99)
	ph.segs[0].hi = 100
	_, samples, _, err := endToEndValues(ph, 0, []float64{1}, 1, 10)
	if err != nil || samples["beyond_p90"] != 10 {
		t.Errorf("100 samples: err %v, %d beyond p90; want nil, 10", err, samples["beyond_p90"])
	}
}
