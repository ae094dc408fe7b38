package pygen

import (
	"context"
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/elfimg"
)

// Manifest is the serializable description of a generated workload:
// the exact generator configuration plus per-DSO summary facts. The
// original Pynamic distribution ships generated C sources so that
// third-party vendors can rebuild the exact benchmark; our equivalent
// is this manifest — the configuration regenerates the workload
// bit-for-bit (the generator is deterministic in the seed), and the
// summaries let a consumer verify they rebuilt the same thing without
// shipping gigabytes.
type Manifest struct {
	FormatVersion int           `json:"format_version"`
	Config        Config        `json:"config"`
	TotalFuncs    int           `json:"total_funcs"`
	Sizes         ManifestSizes `json:"sizes"`
	DSOs          []ManifestDSO `json:"dsos"`
}

// ManifestSizes is the aggregate section accounting in bytes.
type ManifestSizes struct {
	Text   uint64 `json:"text"`
	Data   uint64 `json:"data"`
	Debug  uint64 `json:"debug"`
	SymTab uint64 `json:"symtab"`
	StrTab uint64 `json:"strtab"`
}

// ManifestDSO summarizes one generated shared object.
type ManifestDSO struct {
	Name       string `json:"name"`
	Python     bool   `json:"python_module"`
	Funcs      int    `json:"funcs"`
	Syms       int    `json:"syms"`
	PLTRelocs  int    `json:"plt_relocs"`
	GOTRelocs  int    `json:"got_relocs"`
	Deps       int    `json:"deps"`
	FileSize   uint64 `json:"file_size"`
	MappedSize uint64 `json:"mapped_size"`
}

// manifestFormatVersion guards against schema drift.
const manifestFormatVersion = 1

// Manifest builds the workload's manifest.
func (w *Workload) Manifest() Manifest {
	s := w.Sizes()
	m := Manifest{
		FormatVersion: manifestFormatVersion,
		Config:        w.Config,
		TotalFuncs:    w.TotalFuncs(),
		Sizes: ManifestSizes{
			Text: s.Text, Data: s.Data, Debug: s.Debug,
			SymTab: s.SymTab, StrTab: s.StrTab,
		},
	}
	for _, img := range w.AllImages() {
		got, plt := img.CountRelocs()
		m.DSOs = append(m.DSOs, ManifestDSO{
			Name:       img.Name,
			Python:     img.IsPythonModule,
			Funcs:      len(img.Funcs),
			Syms:       len(img.Syms),
			PLTRelocs:  plt,
			GOTRelocs:  got,
			Deps:       len(img.Deps),
			FileSize:   img.FileSize(),
			MappedSize: img.MappedSize(),
		})
	}
	return m
}

// WriteManifest serializes the workload's manifest as indented JSON.
func (w *Workload) WriteManifest(out io.Writer) error {
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	return enc.Encode(w.Manifest())
}

// LoadManifest parses a manifest and regenerates its workload under
// ctx, verifying that the regenerated DSO set matches the recorded
// summaries (i.e. that the consumer's generator build reproduces the
// producer's benchmark exactly). Regeneration probes ctx like
// GenerateCtx, so a canceled reload returns an error wrapping
// api.ErrCanceled.
func LoadManifest(ctx context.Context, in io.Reader) (*Workload, error) {
	var m Manifest
	if err := json.NewDecoder(in).Decode(&m); err != nil {
		return nil, fmt.Errorf("pygen: bad manifest: %w", err)
	}
	if m.FormatVersion != manifestFormatVersion {
		return nil, fmt.Errorf("pygen: manifest format %d not supported", m.FormatVersion)
	}
	w, err := GenerateCtx(ctx, m.Config)
	if err != nil {
		return nil, fmt.Errorf("pygen: regenerating manifest workload: %w", err)
	}
	if err := verifyManifest(w, m); err != nil {
		return nil, err
	}
	return w, nil
}

func verifyManifest(w *Workload, m Manifest) error {
	if got := w.TotalFuncs(); got != m.TotalFuncs {
		return fmt.Errorf("pygen: manifest mismatch: %d funcs regenerated, manifest says %d",
			got, m.TotalFuncs)
	}
	s := w.Sizes()
	got := ManifestSizes{Text: s.Text, Data: s.Data, Debug: s.Debug,
		SymTab: s.SymTab, StrTab: s.StrTab}
	if got != m.Sizes {
		return fmt.Errorf("pygen: manifest mismatch: sizes %+v vs %+v", got, m.Sizes)
	}
	imgs := w.AllImages()
	if len(imgs) != len(m.DSOs) {
		return fmt.Errorf("pygen: manifest mismatch: %d DSOs vs %d", len(imgs), len(m.DSOs))
	}
	for i, img := range imgs {
		d := m.DSOs[i]
		gotD := summarize(img)
		if gotD != d {
			return fmt.Errorf("pygen: manifest mismatch at %s: %+v vs %+v",
				img.Name, gotD, d)
		}
	}
	return nil
}

func summarize(img *elfimg.Image) ManifestDSO {
	got, plt := img.CountRelocs()
	return ManifestDSO{
		Name:       img.Name,
		Python:     img.IsPythonModule,
		Funcs:      len(img.Funcs),
		Syms:       len(img.Syms),
		PLTRelocs:  plt,
		GOTRelocs:  got,
		Deps:       len(img.Deps),
		FileSize:   img.FileSize(),
		MappedSize: img.MappedSize(),
	}
}
