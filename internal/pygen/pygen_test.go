package pygen

import (
	"context"
	"testing"

	"repro/internal/elfimg"
)

// smallConfig is a fast configuration exercising every generator
// feature.
func smallConfig() Config {
	return Config{
		NumModules:        6,
		AvgFuncsPerModule: 40,
		NumUtils:          4,
		AvgFuncsPerUtil:   30,
		Seed:              42,
		MaxCallDepth:      10,
		CrossModuleCalls:  true,
		UtilCallProb:      0.5,
		UtilUtilProb:      0.3,
		APICallProb:       0.15,
		Sizes:             DefaultSizeModel(),
	}
}

func TestGenerateBasicShape(t *testing.T) {
	w, err := GenerateCtx(context.Background(), smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(w.Modules) != 6 || len(w.Utils) != 4 {
		t.Fatalf("generated %d modules, %d utils", len(w.Modules), len(w.Utils))
	}
	if w.Exe == nil || len(w.Exe.Funcs) != apiFuncPool {
		t.Fatal("executable image malformed")
	}
	names := w.ModuleNames()
	if len(names) != 6 || names[0] != "module_000" {
		t.Fatalf("module names: %v", names)
	}
	so, ok := w.Find("module_003")
	if !ok || so != "libmodule_003.so" {
		t.Fatalf("Find: %s, %v", so, ok)
	}
	if _, ok := w.Find("nonexistent"); ok {
		t.Fatal("found nonexistent module")
	}
	if len(w.Sonames()) != 10 {
		t.Fatalf("Sonames: %v", w.Sonames())
	}
	if w.TotalFuncs() < 6*20+4*15 {
		t.Fatalf("TotalFuncs = %d, implausibly small", w.TotalFuncs())
	}
}

func TestGeneratedImagesValidate(t *testing.T) {
	w, err := GenerateCtx(context.Background(), smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, img := range append(w.AllImages(), w.Exe) {
		if err := img.Validate(); err != nil {
			t.Errorf("image %s: %v", img.Name, err)
		}
	}
	for _, m := range w.Modules {
		if !m.IsPythonModule {
			t.Errorf("%s not marked as Python module", m.Name)
		}
		if m.EntryFunc < 0 {
			t.Errorf("%s has no entry function", m.Name)
		}
	}
	for _, u := range w.Utils {
		if u.IsPythonModule {
			t.Errorf("%s marked as Python module", u.Name)
		}
	}
}

func TestDeterminism(t *testing.T) {
	w1, err := GenerateCtx(context.Background(), smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	w2, err := GenerateCtx(context.Background(), smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	s1, s2 := w1.Sizes(), w2.Sizes()
	if s1 != s2 {
		t.Fatalf("same seed produced different sizes: %+v vs %+v", s1, s2)
	}
	for i := range w1.Modules {
		a, b := w1.Modules[i], w2.Modules[i]
		if len(a.Funcs) != len(b.Funcs) || len(a.Relocs) != len(b.Relocs) {
			t.Fatalf("module %d structure differs", i)
		}
		for j := range a.Relocs {
			if a.Relocs[j] != b.Relocs[j] {
				t.Fatalf("module %d reloc %d differs", i, j)
			}
		}
	}

	diff := smallConfig()
	diff.Seed = 43
	w3, err := GenerateCtx(context.Background(), diff)
	if err != nil {
		t.Fatal(err)
	}
	if w1.Sizes() == w3.Sizes() {
		t.Fatal("different seeds produced identical workloads")
	}
}

func TestFunctionCountVariesAroundAverage(t *testing.T) {
	w, err := GenerateCtx(context.Background(), smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	// "The actual number of functions will vary based on a random
	// number" — not all modules should have exactly the average.
	allSame := true
	for _, m := range w.Modules[1:] {
		if len(m.Funcs) != len(w.Modules[0].Funcs) {
			allSame = false
		}
	}
	if allSame {
		t.Fatal("all modules have identical function counts")
	}
}

func TestSignatureArity(t *testing.T) {
	w, err := GenerateCtx(context.Background(), smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	seen := map[uint8]bool{}
	for _, m := range w.Modules {
		for _, f := range m.Funcs {
			if f.Args > 5 {
				t.Fatalf("function with %d args", f.Args)
			}
			seen[f.Args] = true
		}
	}
	// "zero to five arguments": with hundreds of functions all six
	// arities should occur.
	for a := uint8(0); a <= 5; a++ {
		if !seen[a] {
			t.Errorf("arity %d never generated", a)
		}
	}
}

// entryReachable walks intra-module chains from the entry function.
func entryReachable(img *elfimg.Image) map[int]bool {
	visited := map[int]bool{}
	var walk func(fi int)
	walk = func(fi int) {
		if visited[fi] {
			return
		}
		visited[fi] = true
		for _, c := range img.Funcs[fi].Calls {
			if c.Kind == elfimg.CallIntra {
				walk(c.Target)
			}
		}
	}
	walk(img.EntryFunc)
	return visited
}

func TestEntryChainsCoverAllFunctions(t *testing.T) {
	// §III: the entry function visits 100% of the module's functions
	// through every-10th chain launches. (The optional cross-module
	// export is additional and reached from other modules instead.)
	cfg := smallConfig()
	cfg.CrossModuleCalls = false
	w, err := GenerateCtx(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range w.Modules {
		visited := entryReachable(m)
		if len(visited) != len(m.Funcs) {
			t.Fatalf("%s: entry reaches %d of %d functions",
				m.Name, len(visited), len(m.Funcs))
		}
	}
}

func TestChainDepthBounded(t *testing.T) {
	cfg := smallConfig()
	cfg.CrossModuleCalls = false
	w, err := GenerateCtx(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Longest intra-module chain from entry must not exceed
	// MaxCallDepth (+1 for the entry frame itself).
	for _, m := range w.Modules {
		var depth func(fi int) int
		memo := map[int]int{}
		depth = func(fi int) int {
			if d, ok := memo[fi]; ok {
				return d
			}
			best := 1
			for _, c := range m.Funcs[fi].Calls {
				if c.Kind == elfimg.CallIntra && c.Target != fi {
					if d := 1 + depth(c.Target); d > best {
						best = d
					}
				}
			}
			memo[fi] = best
			return best
		}
		for _, c := range m.Funcs[m.EntryFunc].Calls {
			if c.Kind != elfimg.CallIntra {
				continue
			}
			if d := depth(c.Target); d > cfg.MaxCallDepth {
				t.Fatalf("%s: chain depth %d exceeds %d", m.Name, d, cfg.MaxCallDepth)
			}
		}
	}
}

func TestAllRelocationsResolvable(t *testing.T) {
	// Critical invariant: every PLT/GOT relocation in the workload
	// resolves against some generated image (or the executable) —
	// otherwise Table I's import phase would abort.
	w, err := GenerateCtx(context.Background(), smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	defs := map[elfimg.SymID]bool{}
	for _, img := range append(w.AllImages(), w.Exe) {
		for _, s := range img.Syms {
			if !s.Local {
				defs[s.ID] = true
			}
		}
	}
	for _, img := range w.AllImages() {
		for i, r := range img.Relocs {
			if !defs[r.Sym] {
				t.Fatalf("%s reloc %d: symbol %#x undefined in workload",
					img.Name, i, uint64(r.Sym))
			}
		}
	}
}

func TestDepsExistAndAcyclic(t *testing.T) {
	w, err := GenerateCtx(context.Background(), smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]*elfimg.Image{}
	for _, img := range w.AllImages() {
		byName[img.Name] = img
	}
	// All deps resolvable.
	for _, img := range w.AllImages() {
		for _, d := range img.Deps {
			if byName[d] == nil {
				t.Fatalf("%s depends on missing %s", img.Name, d)
			}
		}
	}
	// DFS cycle check over DT_NEEDED edges.
	const (
		white = 0
		grey  = 1
		black = 2
	)
	color := map[string]int{}
	var visit func(n string) bool
	visit = func(n string) bool {
		switch color[n] {
		case grey:
			return false
		case black:
			return true
		}
		color[n] = grey
		for _, d := range byName[n].Deps {
			if !visit(d) {
				return false
			}
		}
		color[n] = black
		return true
	}
	for name := range byName {
		if !visit(name) {
			t.Fatalf("dependency cycle involving %s", name)
		}
	}
}

func TestCallGraphAcyclic(t *testing.T) {
	// The full cross-DSO call graph must be a DAG or the visit phase
	// would recurse forever (the VM's depth guard would fire).
	w, err := GenerateCtx(context.Background(), smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	type node struct {
		img *elfimg.Image
		fi  int
	}
	defs := map[elfimg.SymID]node{}
	for _, img := range append(w.AllImages(), w.Exe) {
		for fi, f := range img.Funcs {
			defs[img.Syms[f.Sym].ID] = node{img, fi}
		}
	}
	const (
		white = 0
		grey  = 1
		black = 2
	)
	color := map[node]int{}
	var visit func(n node) bool
	visit = func(n node) bool {
		switch color[n] {
		case grey:
			return false
		case black:
			return true
		}
		color[n] = grey
		for _, c := range n.img.Funcs[n.fi].Calls {
			var next node
			switch c.Kind {
			case elfimg.CallIntra:
				next = node{n.img, c.Target}
			case elfimg.CallPLT:
				next = defs[n.img.Relocs[c.Target].Sym]
			}
			if next.img == nil {
				continue
			}
			if !visit(next) {
				return false
			}
		}
		color[n] = black
		return true
	}
	for _, img := range w.AllImages() {
		for fi := range img.Funcs {
			if !visit(node{img, fi}) {
				t.Fatalf("call graph cycle through %s func %d", img.Name, fi)
			}
		}
	}
}

func TestCrossModuleFeature(t *testing.T) {
	on, err := GenerateCtx(context.Background(), smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := smallConfig()
	cfg.CrossModuleCalls = false
	off, err := GenerateCtx(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	// With the feature on, later modules depend on earlier modules.
	crossDeps := 0
	for _, m := range on.Modules {
		for _, d := range m.Deps {
			if len(d) > 9 && d[:9] == "libmodule" {
				crossDeps++
			}
		}
	}
	if crossDeps == 0 {
		t.Fatal("cross-module calls produced no inter-module deps")
	}
	for _, m := range off.Modules {
		for _, d := range m.Deps {
			if len(d) > 9 && d[:9] == "libmodule" {
				t.Fatalf("%s has inter-module dep %s with feature off", m.Name, d)
			}
		}
	}
}

func TestValidateRejectsBadConfigs(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.NumModules = 0 },
		func(c *Config) { c.AvgFuncsPerModule = 0 },
		func(c *Config) { c.NumUtils = -1 },
		func(c *Config) { c.UtilCallProb = 1.5 },
		func(c *Config) { c.APICallProb = -0.1 },
		func(c *Config) { c.Sizes.BytesPerInstr = 0 },
		func(c *Config) { c.MaxCallDepth = 0; c.Seed = 1 }, // depth normalized only when 0 at Generate
	}
	for i, mutate := range bad {
		cfg := smallConfig()
		mutate(&cfg)
		if i == len(bad)-1 {
			// MaxCallDepth 0 is defaulted to 10 by Generate, not an error.
			if _, err := GenerateCtx(context.Background(), cfg); err != nil {
				t.Errorf("MaxCallDepth=0 should default, got %v", err)
			}
			continue
		}
		if _, err := GenerateCtx(context.Background(), cfg); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestScaledHelpers(t *testing.T) {
	cfg := LLNLModel()
	s := cfg.Scaled(10)
	if s.NumModules != 28 || s.NumUtils != 21 {
		t.Fatalf("Scaled(10): %d modules, %d utils", s.NumModules, s.NumUtils)
	}
	if s.AvgFuncsPerModule != cfg.AvgFuncsPerModule {
		t.Fatal("Scaled changed function counts")
	}
	f := cfg.ScaledFuncs(10)
	if f.AvgFuncsPerModule != 185 {
		t.Fatalf("ScaledFuncs(10): %d", f.AvgFuncsPerModule)
	}
	if cfg.Scaled(1) != cfg || cfg.ScaledFuncs(0) != cfg {
		t.Fatal("divisor <= 1 must be identity")
	}
	tiny := cfg.Scaled(10000)
	if tiny.NumModules < 2 || tiny.NumUtils < 1 {
		t.Fatal("Scaled floor violated")
	}
}

func TestLLNLModelMatchesPaperParameters(t *testing.T) {
	cfg := LLNLModel()
	if cfg.NumModules != 280 || cfg.NumUtils != 215 {
		t.Fatalf("LLNL model: %d modules, %d utils", cfg.NumModules, cfg.NumUtils)
	}
	if cfg.AvgFuncsPerModule != 1850 || cfg.AvgFuncsPerUtil != 1850 {
		t.Fatal("LLNL model function averages wrong")
	}
	// 57% of DSOs are Python modules (§IV): 280/495 = 56.6%.
	frac := float64(cfg.NumModules) / float64(cfg.NumModules+cfg.NumUtils)
	if frac < 0.55 || frac > 0.59 {
		t.Fatalf("Python module fraction %v, want ~0.57", frac)
	}
}
