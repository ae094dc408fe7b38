package job

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"

	"repro/internal/cluster"
	"repro/internal/fsim"
)

// mixedClassGolden holds a cold job and the warm job after it, over one
// filesystem, whose ranks fall into several classes (warm and cold
// nodes, healthy and straggler nodes). It was generated by the engine
// that simulated every rank in full, before rank classes existed.
// Regenerate only on deliberate model changes, with
// PYNAMIC_UPDATE_GOLDEN=1 go test ./internal/job -run TestMixedClassGolden.
const mixedClassGolden = "testdata/mixed_class_golden.json"

// TestMixedClassGolden pins a mixed-class job's result bytes, so a rank
// class that derives a member wrongly shows up even where the fast and
// reference paths would agree with each other.
func TestMixedClassGolden(t *testing.T) {
	w := testWorkload(t)
	fs, err := fsim.New(fsim.Defaults(), 16)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Mode: Link, Workload: w, NTasks: 16, Placement: cluster.RoundRobin,
		StragglerFrac: 0.25, WarmNodeFrac: 0.25, SharedFS: fs, Seed: 42,
	}
	cold := mustRun(t, cfg)
	cfg.WarmFS = true
	warm := mustRun(t, cfg)
	got, err := json.MarshalIndent(map[string]*Result{"cold": cold, "warm": warm}, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	if os.Getenv("PYNAMIC_UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(mixedClassGolden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(mixedClassGolden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("mixed-class job diverges from %s", mixedClassGolden)
	}
}
