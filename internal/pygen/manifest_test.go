package pygen

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"
)

func TestManifestRoundTrip(t *testing.T) {
	w, err := GenerateCtx(context.Background(), smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := w.WriteManifest(&buf); err != nil {
		t.Fatal(err)
	}
	w2, err := LoadManifest(context.Background(), &buf)
	if err != nil {
		t.Fatal(err)
	}
	if w2.TotalFuncs() != w.TotalFuncs() {
		t.Fatalf("regenerated %d funcs, original %d", w2.TotalFuncs(), w.TotalFuncs())
	}
	if w2.Sizes() != w.Sizes() {
		t.Fatal("regenerated sizes differ")
	}
}

func TestManifestContents(t *testing.T) {
	w, err := GenerateCtx(context.Background(), smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	m := w.Manifest()
	if m.FormatVersion != manifestFormatVersion {
		t.Fatal("format version missing")
	}
	if len(m.DSOs) != len(w.AllImages()) {
		t.Fatalf("%d DSO summaries for %d images", len(m.DSOs), len(w.AllImages()))
	}
	pythonCount := 0
	for _, d := range m.DSOs {
		if d.Python {
			pythonCount++
		}
		if d.FileSize < d.MappedSize {
			t.Fatalf("%s: file smaller than mapping", d.Name)
		}
	}
	if pythonCount != smallConfig().NumModules {
		t.Fatalf("%d python modules in manifest", pythonCount)
	}
}

func TestLoadManifestRejectsTampering(t *testing.T) {
	w, err := GenerateCtx(context.Background(), smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := w.WriteManifest(&buf); err != nil {
		t.Fatal(err)
	}
	// Corrupt the recorded function count: regeneration must detect it.
	var m Manifest
	if err := json.Unmarshal(buf.Bytes(), &m); err != nil {
		t.Fatal(err)
	}
	m.TotalFuncs++
	tampered, _ := json.Marshal(m)
	if _, err := LoadManifest(context.Background(), bytes.NewReader(tampered)); err == nil {
		t.Fatal("tampered manifest accepted")
	}

	// Corrupt a DSO summary.
	m.TotalFuncs--
	m.DSOs[0].PLTRelocs++
	tampered, _ = json.Marshal(m)
	if _, err := LoadManifest(context.Background(), bytes.NewReader(tampered)); err == nil {
		t.Fatal("tampered DSO summary accepted")
	}
}

func TestLoadManifestBadInput(t *testing.T) {
	if _, err := LoadManifest(context.Background(), strings.NewReader("{nope")); err == nil {
		t.Fatal("bad JSON accepted")
	}
	if _, err := LoadManifest(context.Background(), strings.NewReader(`{"format_version":99}`)); err == nil {
		t.Fatal("unknown format version accepted")
	}
	if _, err := LoadManifest(context.Background(), strings.NewReader(
		`{"format_version":1,"config":{}}`)); err == nil {
		t.Fatal("invalid embedded config accepted")
	}
}

func TestManifestJSONStable(t *testing.T) {
	// The manifest of a fixed seed is byte-stable: the distributable
	// artifact doesn't churn.
	w1, _ := GenerateCtx(context.Background(), smallConfig())
	w2, _ := GenerateCtx(context.Background(), smallConfig())
	var b1, b2 bytes.Buffer
	w1.WriteManifest(&b1)
	w2.WriteManifest(&b2)
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Fatal("manifest bytes not deterministic")
	}
}
