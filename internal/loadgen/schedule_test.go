package loadgen

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// scheduleGolden renders a schedule in the committed golden format:
// one mix index per line, 32 per row.
func scheduleGolden(seed uint64, k int, skew float64, n int) ([]byte, error) {
	sched, err := Schedule(seed, k, skew, n)
	if err != nil {
		return nil, err
	}
	var b bytes.Buffer
	fmt.Fprintf(&b, "# Schedule(seed=%d, k=%d, skew=%g, n=%d)\n", seed, k, skew, n)
	for i, idx := range sched {
		if i > 0 {
			if i%32 == 0 {
				b.WriteByte('\n')
			} else {
				b.WriteByte(' ')
			}
		}
		fmt.Fprintf(&b, "%d", idx)
	}
	b.WriteByte('\n')
	return b.Bytes(), nil
}

// TestScheduleGolden is the determinism gate the package doc promises:
// the request schedule is a pure function of (seed, skew, mix size),
// byte-identical across runs, platforms, and commits. Regenerate with
//
//	PYNAMIC_UPDATE_LOADGEN=1 go test -run TestScheduleGolden ./internal/loadgen
//
// but treat a diff as an API break: changing the schedule silently
// changes the traffic the same pynamic-load flags replay, so load
// measurements taken before and after the change stop being
// comparable.
func TestScheduleGolden(t *testing.T) {
	got, err := scheduleGolden(1, 16, 1.1, 256)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "schedule.golden")
	if os.Getenv("PYNAMIC_UPDATE_LOADGEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("updated %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with PYNAMIC_UPDATE_LOADGEN=1)", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("schedule drifted from %s — same seed no longer replays the same traffic.\ngot:\n%s", path, got)
	}
}

// TestScheduleDeterministic checks the replay property directly: two
// independent calls agree, and a different seed disagrees.
func TestScheduleDeterministic(t *testing.T) {
	a, err := Schedule(7, 16, 1.1, 512)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Schedule(7, 16, 1.1, 512)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("position %d: %d vs %d from identical seeds", i, a[i], b[i])
		}
	}
	c, err := Schedule(8, 16, 1.1, 512)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("seeds 7 and 8 produced identical schedules")
	}
	for i, idx := range a {
		if idx < 0 || idx >= 16 {
			t.Fatalf("position %d: index %d outside the 16-entry mix", i, idx)
		}
	}
}

// TestScheduleSkew checks the Zipfian shape: raising the exponent
// concentrates traffic on the head of the mix, and skew 0 degenerates
// to roughly uniform.
func TestScheduleSkew(t *testing.T) {
	headShare := func(skew float64) float64 {
		sched, err := Schedule(1, 16, skew, 4096)
		if err != nil {
			t.Fatal(err)
		}
		head := 0
		for _, idx := range sched {
			if idx == 0 {
				head++
			}
		}
		return float64(head) / float64(len(sched))
	}
	uniform := headShare(0)
	mild := headShare(1.1)
	steep := headShare(2.0)
	if !(uniform < mild && mild < steep) {
		t.Fatalf("head share not monotonic in skew: s=0 %.3f, s=1.1 %.3f, s=2.0 %.3f", uniform, mild, steep)
	}
	if uniform < 0.02 || uniform > 0.15 {
		t.Fatalf("skew 0 head share %.3f is far from uniform 1/16", uniform)
	}
	if steep < 0.4 {
		t.Fatalf("skew 2.0 head share %.3f — the head should dominate", steep)
	}
}

// TestDefaultMixStable checks that the mix is a pure function of
// (seed, k) and that every entry owns a distinct content hash —
// distinct specs are what make the dedup and cache ratios meaningful.
func TestDefaultMixStable(t *testing.T) {
	a, err := DefaultMix(1, 16)
	if err != nil {
		t.Fatal(err)
	}
	b, err := DefaultMix(1, 16)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[string]bool)
	for i := range a {
		if a[i].Hash != b[i].Hash {
			t.Fatalf("entry %d: hash differs across identical DefaultMix calls", i)
		}
		if len(a[i].Hash) != 64 {
			t.Fatalf("entry %d: hash %q is not a canonical content hash", i, a[i].Hash)
		}
		if seen[a[i].Hash] {
			t.Fatalf("entry %d: duplicate hash %s in the mix", i, a[i].Hash)
		}
		seen[a[i].Hash] = true
		if !bytes.Equal(a[i].Body, b[i].Body) {
			t.Fatalf("entry %d: canonical body differs across identical DefaultMix calls", i)
		}
	}
	if _, err := DefaultMix(1, 0); err == nil {
		t.Fatal("DefaultMix accepted an empty mix")
	}
}
