package runner

import (
	"bytes"
	"context"
	"encoding/csv"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

var updateGolden = flag.Bool("update", false, "rewrite golden artifact files")

// goldenRegistry is a frozen synthetic experiment whose metrics are a
// pure function of (params, seed): changing the runner's artifact
// shape — field names, aggregation, CSV layout — shows up as a golden
// diff, while incidental encoding details (JSON key order, float
// formatting of equal values) do not, because the comparison is
// structural.
func goldenRegistry() *Registry {
	reg := NewRegistry()
	reg.MustRegister(&Experiment{
		Name:        "golden",
		Description: "frozen synthetic cells for artifact golden tests",
		Grid: func() []Params {
			return []Params{
				{"n": 1, "mode": "alpha"},
				{"n": 2, "mode": "alpha"},
				{"n": 2, "mode": "beta", "extra": true},
			}
		},
		Run: func(_ context.Context, p Params, seed uint64) (Metrics, error) {
			n := float64(p.Int("n"))
			m := Metrics{
				"value":   n*100 + float64(seed%89),
				"scaled":  n / 4,
				"samples": 3,
			}
			if p["extra"] == true {
				m["bonus"] = n * 7
			}
			return m, nil
		},
	})
	return reg
}

func goldenRun(t *testing.T) (string, []string) {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "run")
	spec := MatrixSpec{Repeats: 3, Seed: 77, Workers: 4}
	res, err := RunMatrixCtx(context.Background(), goldenRegistry(), spec)
	if err != nil {
		t.Fatal(err)
	}
	files, err := WriteRun(dir, spec, res,
		time.Date(2026, 7, 29, 0, 0, 0, 0, time.UTC))
	if err != nil {
		t.Fatal(err)
	}
	return dir, files
}

// goldenArtifacts are the run outputs with golden copies checked in.
// manifest.json is excluded: it intentionally carries run-dependent
// data (wall clock, worker count, cache traffic).
var goldenArtifacts = []string{
	"golden/results.json",
	"golden/cells.json",
	"golden/results.csv",
}

func TestGoldenArtifacts(t *testing.T) {
	dir, _ := goldenRun(t)

	if *updateGolden {
		for _, rel := range goldenArtifacts {
			data, err := os.ReadFile(filepath.Join(dir, rel))
			if err != nil {
				t.Fatal(err)
			}
			dst := filepath.Join("testdata", "golden", filepath.Base(rel))
			if err := os.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(dst, data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		t.Log("golden files updated")
		return
	}

	for _, rel := range goldenArtifacts {
		rel := rel
		t.Run(filepath.Base(rel), func(t *testing.T) {
			got, err := os.ReadFile(filepath.Join(dir, rel))
			if err != nil {
				t.Fatal(err)
			}
			want, err := os.ReadFile(filepath.Join("testdata", "golden", filepath.Base(rel)))
			if err != nil {
				t.Fatalf("missing golden file (run `go test -run Golden -update ./internal/runner` to create): %v", err)
			}
			if filepath.Ext(rel) == ".csv" {
				compareCSVStructurally(t, got, want)
			} else {
				compareJSONStructurally(t, got, want)
			}
		})
	}
}

// compareJSONStructurally compares decoded documents, so formatting
// and key order can change freely while any value or field-name drift
// fails.
func compareJSONStructurally(t *testing.T, got, want []byte) {
	t.Helper()
	var g, w any
	if err := json.Unmarshal(got, &g); err != nil {
		t.Fatalf("got: %v", err)
	}
	if err := json.Unmarshal(want, &w); err != nil {
		t.Fatalf("want: %v", err)
	}
	if !reflect.DeepEqual(g, w) {
		t.Fatalf("artifact drifted from golden:\ngot:  %s\nwant: %s", got, want)
	}
}

// compareCSVStructurally keys every row by its header, so column
// reordering does not flake while renamed columns, changed values, or
// missing rows fail.
func compareCSVStructurally(t *testing.T, got, want []byte) {
	t.Helper()
	g := csvRowMaps(t, got)
	w := csvRowMaps(t, want)
	if !reflect.DeepEqual(g, w) {
		t.Fatalf("CSV drifted from golden:\ngot:  %v\nwant: %v", g, w)
	}
}

func csvRowMaps(t *testing.T, data []byte) []map[string]string {
	t.Helper()
	rows, err := csv.NewReader(bytes.NewReader(data)).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 {
		t.Fatal("empty CSV")
	}
	header := rows[0]
	out := make([]map[string]string, 0, len(rows)-1)
	for _, row := range rows[1:] {
		if len(row) != len(header) {
			t.Fatalf("row width %d != header width %d", len(row), len(header))
		}
		m := make(map[string]string, len(row))
		for i, cell := range row {
			m[header[i]] = cell
		}
		out = append(out, m)
	}
	return out
}
