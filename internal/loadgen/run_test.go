package loadgen

import (
	"context"
	"encoding/csv"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/serve"

	pynamic "repro"
)

// testCell returns a small request-bounded closed-loop cell config.
func testCell(requests, conc, cache int) CellConfig {
	return CellConfig{
		Mode:        ModeClosed,
		Concurrency: conc,
		Requests:    requests,
		Specs:       4,
		Skew:        1.1,
		CacheSize:   cache,
		Seed:        1,
	}
}

// checkCell asserts the invariants every completed cell must satisfy.
func checkCell(t *testing.T, c *CellResult, wantRequests int) {
	t.Helper()
	if c.Requests != wantRequests {
		t.Fatalf("requests %d, want %d", c.Requests, wantRequests)
	}
	if c.Errors != 0 {
		t.Fatalf("%d errors in a healthy cell", c.Errors)
	}
	if c.ElapsedSec <= 0 || c.ThroughputRPS <= 0 {
		t.Fatalf("elapsed %v throughput %v", c.ElapsedSec, c.ThroughputRPS)
	}
	l := c.Latency
	if !(l.P50Ms <= l.P95Ms && l.P95Ms <= l.P99Ms && l.P99Ms <= l.MaxMs) {
		t.Fatalf("percentiles not monotonic: %+v", l)
	}
	if l.MaxMs <= 0 {
		t.Fatalf("max latency %v — no real work was measured", l.MaxMs)
	}
}

func TestRunCellClosedEngine(t *testing.T) {
	mix, err := DefaultMix(1, 4)
	if err != nil {
		t.Fatal(err)
	}
	tgt, err := NewEngineTarget(8, "")
	if err != nil {
		t.Fatal(err)
	}
	defer tgt.Close()
	cell, err := RunCell(context.Background(), tgt, mix, testCell(12, 2, 8))
	if err != nil {
		t.Fatal(err)
	}
	checkCell(t, cell, 12)
	// 12 requests over a 4-spec mix against a warm cache: the
	// workload cache must see repeats.
	if cell.CacheHitRatio <= 0 || cell.CacheHitRatio > 1 {
		t.Fatalf("cache hit ratio %v, want (0,1]", cell.CacheHitRatio)
	}
	// In-process targets have no dedup layer: the ratio is the
	// unavailable marker, never a fake zero. Likewise the store ratio
	// when no -cache-dir store is attached.
	if cell.DedupRatio != -1 {
		t.Fatalf("dedup ratio %v from an in-process target", cell.DedupRatio)
	}
	if cell.StoreHitRatio != -1 {
		t.Fatalf("store hit ratio %v from a store-less target", cell.StoreHitRatio)
	}
	if cell.MetricsDelta["engine_specs"] != 12 {
		t.Fatalf("engine_specs delta %v, want 12", cell.MetricsDelta["engine_specs"])
	}
	// The in-process target reports the same engine catalog as serve,
	// kernel counters included.
	if cell.MetricsDelta["kernel_relocs_processed"] <= 0 {
		t.Fatalf("kernel_relocs_processed delta %v, want > 0", cell.MetricsDelta["kernel_relocs_processed"])
	}
}

func TestRunCellOpenEngine(t *testing.T) {
	mix, err := DefaultMix(1, 4)
	if err != nil {
		t.Fatal(err)
	}
	tgt, err := NewEngineTarget(8, "")
	if err != nil {
		t.Fatal(err)
	}
	defer tgt.Close()
	cfg := testCell(10, 2, 8)
	cfg.Mode = ModeOpen
	cfg.RatePerSec = 2000
	cell, err := RunCell(context.Background(), tgt, mix, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Open loop still honors the request budget; shed requests (if
	// any) count as errors, completed ones as samples.
	if cell.Requests != 10 {
		t.Fatalf("requests %d, want 10", cell.Requests)
	}
	if cell.Errors == cell.Requests {
		t.Fatal("every open-loop request was shed")
	}
}

func TestRunCellValidation(t *testing.T) {
	mix, err := DefaultMix(1, 4)
	if err != nil {
		t.Fatal(err)
	}
	tgt, err := NewEngineTarget(0, "")
	if err != nil {
		t.Fatal(err)
	}
	defer tgt.Close()
	bad := testCell(4, 0, 0) // zero concurrency
	if _, err := RunCell(context.Background(), tgt, mix, bad); err == nil {
		t.Fatal("zero concurrency accepted")
	}
	wrongMix := testCell(4, 1, 0)
	wrongMix.Specs = 5 // mix has 4
	if _, err := RunCell(context.Background(), tgt, mix, wrongMix); err == nil {
		t.Fatal("mix/config size mismatch accepted")
	}
	open := testCell(4, 1, 0)
	open.Mode = ModeOpen // no rate
	if _, err := RunCell(context.Background(), tgt, mix, open); err == nil {
		t.Fatal("open loop without a rate accepted")
	}
}

// TestRunSweepArtifacts is the harness e2e: sweep a 2×2 grid
// in-process and write the run artifacts.
func TestRunSweepArtifacts(t *testing.T) {
	sc := SweepConfig{
		Base:          testCell(6, 0, 0),
		Concurrencies: []int{1, 2},
		CacheSizes:    []int{0, 8},
	}
	sc.Base.Skew = 1.1
	if got := sc.Cells(); got != 4 {
		t.Fatalf("grid size %d, want 4", got)
	}
	res, err := RunSweep(context.Background(), sc, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 4 || res.Target != "engine" || res.Stamp == "" {
		t.Fatalf("sweep result: target %q stamp %q cells %d", res.Target, res.Stamp, len(res.Cells))
	}
	for i := range res.Cells {
		checkCell(t, &res.Cells[i], 6)
	}

	dir := filepath.Join(t.TempDir(), "loadgen")
	files, err := WriteRun(dir, res)
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 2 {
		t.Fatalf("wrote %d files, want sweep.json + cells.csv", len(files))
	}
	f, err := os.Open(filepath.Join(dir, "cells.csv"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rows, err := csv.NewReader(f).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 { // header + 4 cells
		t.Fatalf("cells.csv has %d rows, want 5", len(rows))
	}
}

// TestRunCellStoreHitRatio: a cell whose engine persists to a cache
// directory records the store's hit fraction — misses-only on the cold
// cell, real hits on a fresh engine warming from the same directory.
func TestRunCellStoreHitRatio(t *testing.T) {
	dir := t.TempDir()
	mix, err := DefaultMix(1, 4)
	if err != nil {
		t.Fatal(err)
	}

	cold, err := NewEngineTarget(8, dir)
	if err != nil {
		t.Fatal(err)
	}
	defer cold.Close()
	cell, err := RunCell(context.Background(), cold, mix, testCell(8, 2, 8))
	if err != nil {
		t.Fatal(err)
	}
	checkCell(t, cell, 8)
	// The cold cell misses every first-seen spec (repeats within the
	// cell already replay from the store — the store is the in-process
	// engine's only cross-request result memo), so the ratio is real
	// but below 1.
	if cell.StoreHitRatio < 0 || cell.StoreHitRatio >= 1 {
		t.Fatalf("cold store hit ratio %v, want [0,1)", cell.StoreHitRatio)
	}
	if cell.MetricsDelta["store_puts"] == 0 {
		t.Fatal("cold cell persisted nothing")
	}

	// A second engine over the warmed directory — a sweep's next cell,
	// or a restarted harness — replays specs from disk.
	warm, err := NewEngineTarget(8, dir)
	if err != nil {
		t.Fatal(err)
	}
	defer warm.Close()
	cell, err = RunCell(context.Background(), warm, mix, testCell(8, 2, 8))
	if err != nil {
		t.Fatal(err)
	}
	checkCell(t, cell, 8)
	if cell.StoreHitRatio <= 0 || cell.StoreHitRatio > 1 {
		t.Fatalf("warm store hit ratio %v, want (0,1]", cell.StoreHitRatio)
	}
	if cell.MetricsDelta["store_spec_hits"] == 0 {
		t.Fatal("warm cell served no spec results from the store")
	}
	// Nothing was re-simulated for the store-served specs.
	if jobs := cell.MetricsDelta["engine_jobs"]; jobs != 0 {
		t.Fatalf("warm cell re-ran %v jobs", jobs)
	}
}

// TestHTTPTargetAgainstServe drives the full service path: a live
// httptest pynamic-serve, the HTTP target, spec dedup, and the
// /v1/metrics scrape feeding the cell's counter deltas.
func TestHTTPTargetAgainstServe(t *testing.T) {
	eng, err := pynamic.New(pynamic.WithWorkloadCacheSize(8))
	if err != nil {
		t.Fatal(err)
	}
	sv := serve.New(eng, serve.Options{})
	ts := httptest.NewServer(sv.Handler())
	defer func() { ts.Close(); sv.Close() }()

	mix, err := DefaultMix(1, 3)
	if err != nil {
		t.Fatal(err)
	}
	tgt := NewHTTPTarget(ts.URL, time.Millisecond)
	defer tgt.Close()

	cfg := testCell(9, 2, 8)
	cfg.Specs = 3
	cell, err := RunCell(context.Background(), tgt, mix, cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkCell(t, cell, 9)
	// 9 requests over 3 distinct specs: at least 6 must have joined
	// an existing record, so the dedup ratio is real and positive.
	if cell.DedupRatio < 0.5 || cell.DedupRatio > 1 {
		t.Fatalf("dedup ratio %v, want >= 6/9 of requests deduped", cell.DedupRatio)
	}
	if cell.MetricsDelta["specs_submitted"] != 9 {
		t.Fatalf("specs_submitted delta %v, want 9", cell.MetricsDelta["specs_submitted"])
	}
	m, err := tgt.Metrics(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"queue_depth", "running", "specs_done", "engine_specs"} {
		if _, ok := m[key]; !ok {
			t.Fatalf("/v1/metrics lacks %q", key)
		}
	}
}
