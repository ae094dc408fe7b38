package pygen

import (
	"bytes"
	"context"
	"encoding/json"
	"reflect"
	"testing"
)

// manifestFuzzBudget bounds the workload size a fuzzed manifest may
// ask the generator to rebuild, so adversarial configs probe the
// parser and verifier without turning the fuzzer into a memory test.
const manifestFuzzBudget = 200_000 // total functions

func configTooBig(c Config) bool {
	mods, utils := c.NumModules, c.NumUtils
	fm, fu := c.AvgFuncsPerModule, c.AvgFuncsPerUtil
	if mods < 0 || utils < 0 || fm < 0 || fu < 0 {
		return false // invalid, cheap to reject — let it through
	}
	if mods > 4096 || utils > 4096 || fm > 1<<20 || fu > 1<<20 {
		return true
	}
	return mods*fm+utils*fu > manifestFuzzBudget
}

// FuzzManifestJSON fuzzes manifest deserialization end to end: no
// input may panic LoadManifest, and any input it accepts must describe
// a workload whose own manifest round-trips. Seed corpus lives in
// testdata/fuzz/FuzzManifestJSON.
func FuzzManifestJSON(f *testing.F) {
	// A small but valid manifest as the anchor seed.
	w, err := GenerateCtx(context.Background(), Config{
		NumModules: 2, AvgFuncsPerModule: 25,
		NumUtils: 1, AvgFuncsPerUtil: 25,
		Seed: 3, MaxCallDepth: 10, UtilCallProb: 0.5,
		Sizes: DefaultSizeModel(),
	})
	if err != nil {
		f.Fatal(err)
	}
	var valid bytes.Buffer
	if err := w.WriteManifest(&valid); err != nil {
		f.Fatal(err)
	}
	f.Add(valid.Bytes())
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"format_version":1}`))
	f.Add([]byte(`{"format_version":99,"config":{}}`))
	f.Add([]byte(`null`))
	f.Add([]byte(`[]`))
	f.Add([]byte(``))
	f.Add([]byte(`{"format_version":1,"config":{"NumModules":-1}}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		// Pre-screen the declared config so the fuzzer can't demand a
		// multi-gigabyte regeneration; everything within budget goes
		// through the real entry point.
		var m Manifest
		if err := json.Unmarshal(data, &m); err == nil && configTooBig(m.Config) {
			t.Skip()
		}
		w, err := LoadManifest(context.Background(), bytes.NewReader(data))
		if err != nil {
			return // rejection is fine; panics are not
		}
		// Accepted manifests must be self-consistent: the regenerated
		// workload's manifest re-loads cleanly.
		var buf bytes.Buffer
		if err := w.WriteManifest(&buf); err != nil {
			t.Fatalf("accepted manifest cannot re-serialize: %v", err)
		}
		if _, err := LoadManifest(context.Background(), bytes.NewReader(buf.Bytes())); err != nil {
			t.Fatalf("round-trip of accepted manifest rejected: %v", err)
		}
	})
}

// FuzzManifestRoundTrip fuzzes the generator configuration space
// directly: any valid config's workload must serialize to a manifest
// that regenerates the identical workload. Seed corpus lives in
// testdata/fuzz/FuzzManifestRoundTrip.
func FuzzManifestRoundTrip(f *testing.F) {
	f.Add(2, 25, 1, 25, uint64(42), 10, true)
	f.Add(1, 1, 0, 0, uint64(0), 1, false)
	f.Add(3, 40, 2, 30, uint64(7), 3, true)
	f.Fuzz(func(t *testing.T, mods, fm, utils, fu int, seed uint64, depth int, cross bool) {
		cfg := Config{
			NumModules: mods % 5, AvgFuncsPerModule: fm % 60,
			NumUtils: utils % 4, AvgFuncsPerUtil: fu % 60,
			Seed: seed, MaxCallDepth: depth % 16,
			CrossModuleCalls: cross,
			UtilCallProb:     0.5, UtilUtilProb: 0.3, APICallProb: 0.15,
			DebugComplexity: 1,
			Sizes:           DefaultSizeModel(),
		}
		w, err := GenerateCtx(context.Background(), cfg)
		if err != nil {
			return // invalid configs must be rejected, not generated
		}
		var buf bytes.Buffer
		if err := w.WriteManifest(&buf); err != nil {
			t.Fatal(err)
		}
		w2, err := LoadManifest(context.Background(), bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("config %+v: regeneration rejected: %v", cfg, err)
		}
		m1, m2 := w.Manifest(), w2.Manifest()
		if !reflect.DeepEqual(m1, m2) {
			t.Fatalf("config %+v: manifests differ after round trip", cfg)
		}
	})
}
