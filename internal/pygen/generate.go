package pygen

import (
	"context"
	"fmt"

	"repro/internal/api"
	"repro/internal/elfimg"
	"repro/internal/xrand"
)

// Python C-API surface exported by the pyMPI executable image: the
// symbols every extension module links against (PyArg_ParseTuple,
// Py_BuildValue, PyErr_*, ...).
const (
	apiFuncPool  = 1200
	apiDataPool  = 120
	apiNameMean  = 22
	apiNameSD    = 6
	apiFuncInstr = 60

	// Per-module relocation baseline against the executable.
	apiDataRefsPerModule = 30

	// Cross-module call sites per module when enabled.
	crossCallSites = 3

	exeName = "pympi"
)

// generator carries generation state.
type generator struct {
	cfg    Config
	rng    *xrand.RNG
	nextID uint64

	apiFuncSyms []elfimg.SymID
	apiDataSyms []elfimg.SymID

	utilFuncSyms [][]elfimg.SymID // per util lib: exported function syms
	utilDataSyms []elfimg.SymID   // per util lib: one data symbol
	crossSyms    []elfimg.SymID   // per module: cross-module function sym
}

func (g *generator) id() elfimg.SymID {
	g.nextID++
	return elfimg.SymID(g.nextID)
}

func (g *generator) nameLen(r *xrand.RNG) uint32 {
	return uint32(r.NormInt(g.cfg.Sizes.NameLenMean, g.cfg.Sizes.NameLenStdDev, 8, 1024))
}

// addFunc appends a generated function with sampled size/signature.
func (g *generator) addFunc(b *elfimg.Builder, r *xrand.RNG) int {
	s := g.cfg.Sizes
	instr := r.NormInt(s.InstrMean, s.InstrStdDev, 8, 100000)
	args := uint8(r.Intn(6)) // 0..5 arguments (§III)
	instr += int(args) * 4   // argument marshalling work
	text := uint32(16 + instr*s.BytesPerInstr)
	fi := b.AddFunc(g.id(), g.nameLen(r), text, uint32(instr), 64+uint32(args)*8, false)
	b.SetArgs(fi, args)
	if r.Bool(s.LocalSymProb) {
		b.AddSymbol(g.id(), g.nameLen(r), 8, true)
	}
	return fi
}

// GenerateCtx builds the full workload for cfg. The per-DSO
// generation loops probe ctx, so canceling it abandons the workload
// within one DSO's work and returns an error wrapping api.ErrCanceled.
func GenerateCtx(ctx context.Context, cfg Config) (*Workload, error) {
	if cfg.MaxCallDepth == 0 {
		cfg.MaxCallDepth = 10
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	g := &generator{cfg: cfg, rng: xrand.New(cfg.Seed)}
	w := &Workload{Config: cfg, moduleName: make(map[string]string)}

	exe, err := g.buildExe()
	if err != nil {
		return nil, err
	}
	w.Exe = exe

	// Utility libraries first: modules depend on them.
	g.utilFuncSyms = make([][]elfimg.SymID, cfg.NumUtils)
	g.utilDataSyms = make([]elfimg.SymID, cfg.NumUtils)
	for i := 0; i < cfg.NumUtils; i++ {
		if err := api.Checkpoint(ctx); err != nil {
			return nil, fmt.Errorf("pygen: generate utility %d: %w", i, err)
		}
		img, err := g.buildUtil(i)
		if err != nil {
			return nil, err
		}
		w.Utils = append(w.Utils, img)
	}

	g.crossSyms = make([]elfimg.SymID, cfg.NumModules)
	for i := 0; i < cfg.NumModules; i++ {
		if err := api.Checkpoint(ctx); err != nil {
			return nil, fmt.Errorf("pygen: generate module %d: %w", i, err)
		}
		img, name, err := g.buildModule(i, w)
		if err != nil {
			return nil, err
		}
		w.Modules = append(w.Modules, img)
		w.moduleName[name] = img.Name
		w.names = append(w.names, name)
	}
	return w, nil
}

// buildExe creates the pyMPI executable image exporting the Python
// C-API pool. It is "pre-linked" by definition (it is the program).
func (g *generator) buildExe() (*elfimg.Image, error) {
	r := g.rng.Split(0xe0e)
	b := elfimg.NewBuilder(exeName).SetPath("/usr/bin/" + exeName)
	b.SetData(2 << 20).SetRoData(1 << 20).SetDebug(8 << 20)
	g.apiFuncSyms = make([]elfimg.SymID, apiFuncPool)
	for i := range g.apiFuncSyms {
		id := g.id()
		g.apiFuncSyms[i] = id
		nameLen := uint32(r.NormInt(apiNameMean, apiNameSD, 6, 64))
		b.AddFunc(id, nameLen, 16+apiFuncInstr*5, apiFuncInstr, 64, false)
	}
	g.apiDataSyms = make([]elfimg.SymID, apiDataPool)
	for i := range g.apiDataSyms {
		id := g.id()
		g.apiDataSyms[i] = id
		b.AddSymbol(id, uint32(r.NormInt(apiNameMean, apiNameSD, 6, 64)), 16, false)
	}
	return b.Build()
}

// buildUtil creates utility library u. Utility functions may call
// functions from strictly earlier utility libraries, keeping the call
// graph acyclic ("many Python modules have dependencies on external
// libraries such as physics packages or math libraries", §III).
func (g *generator) buildUtil(u int) (*elfimg.Image, error) {
	cfg := g.cfg
	r := g.rng.Split(0x0701 + uint64(u))
	name := fmt.Sprintf("libutility%03d.so", u)
	b := elfimg.NewBuilder(name).SetPath("/gen/lib/" + name)

	nf := r.NormInt(float64(cfg.AvgFuncsPerUtil), float64(cfg.AvgFuncsPerUtil)/10, 1, 1<<20)
	var debug uint64
	syms := make([]elfimg.SymID, 0, nf)
	pltOf := make(map[elfimg.SymID]int)
	deps := make(map[int]bool)

	funcs := make([]int, nf)
	for i := 0; i < nf; i++ {
		fi := g.addFunc(b, r)
		funcs[i] = fi
		syms = append(syms, g.symOfLastFunc(b, fi))
		debug += uint64(r.NormInt(cfg.Sizes.DebugPerFuncMean, cfg.Sizes.DebugPerFuncStdDev, 64, 1<<20))
	}
	// Cross-utility calls into earlier libraries.
	if u > 0 && cfg.UtilUtilProb > 0 {
		for _, fi := range funcs {
			if !r.Bool(cfg.UtilUtilProb) {
				continue
			}
			target := r.Intn(u)
			tsyms := g.utilFuncSyms[target]
			if len(tsyms) == 0 {
				continue
			}
			sym := tsyms[r.Intn(len(tsyms))]
			ri, ok := pltOf[sym]
			if !ok {
				ri = b.AddPLTReloc(sym)
				pltOf[sym] = ri
				if !deps[target] {
					deps[target] = true
					b.AddDep(fmt.Sprintf("libutility%03d.so", target))
				}
			}
			b.AddCall(fi, elfimg.Call{Kind: elfimg.CallPLT, Target: ri})
		}
	}
	// One exported data symbol (library state) + baseline GOT relocs.
	dataSym := g.id()
	b.AddSymbol(dataSym, g.nameLen(r), 64, false)
	g.utilDataSyms[u] = dataSym

	b.SetData(cfg.Sizes.DataPerModule / 2).SetDebug(debug)
	img, err := b.Build()
	if err != nil {
		return nil, err
	}
	g.utilFuncSyms[u] = syms
	return img, nil
}

// symOfLastFunc returns the symbol id of function fi in builder b.
// (The builder interleaves local padding symbols, so the function's own
// symbol index must be read back from the built structures; we track it
// via the Func record instead.)
func (g *generator) symOfLastFunc(b *elfimg.Builder, fi int) elfimg.SymID {
	return b.FuncSymID(fi)
}

// buildModule creates Python module m.
func (g *generator) buildModule(m int, w *Workload) (*elfimg.Image, string, error) {
	cfg := g.cfg
	r := g.rng.Split(0x30d + uint64(m))
	pyName := fmt.Sprintf("module_%03d", m)
	soname := fmt.Sprintf("lib%s.so", pyName)
	b := elfimg.NewBuilder(soname).SetPath("/gen/lib/" + soname).SetPythonModule(true)

	nf := r.NormInt(float64(cfg.AvgFuncsPerModule), float64(cfg.AvgFuncsPerModule)/10, 1, 1<<20)
	var debug uint64

	// Entry function: one chain launch per MaxCallDepth functions.
	nChains := (nf + cfg.MaxCallDepth - 1) / cfg.MaxCallDepth
	entryInstr := 80 + 4*nChains
	entry := b.AddFunc(g.id(), g.nameLen(r), uint32(16+entryInstr*cfg.Sizes.BytesPerInstr),
		uint32(entryInstr), 128, false)
	b.MarkEntry(entry)

	funcs := make([]int, nf)
	for i := 0; i < nf; i++ {
		funcs[i] = g.addFunc(b, r)
		debug += uint64(r.NormInt(cfg.Sizes.DebugPerFuncMean, cfg.Sizes.DebugPerFuncStdDev, 64, 1<<20))
	}

	// Call chains (§III): entry calls every MaxCallDepth-th function;
	// each function calls the next until the chain end, so 100% of
	// functions are visited.
	for i := 0; i < nf; i += cfg.MaxCallDepth {
		b.AddCall(entry, elfimg.Call{Kind: elfimg.CallIntra, Target: funcs[i]})
		for j := i; j < i+cfg.MaxCallDepth-1 && j+1 < nf; j++ {
			b.AddCall(funcs[j], elfimg.Call{Kind: elfimg.CallIntra, Target: funcs[j+1]})
		}
	}

	pltOf := make(map[elfimg.SymID]int)
	gotOf := make(map[elfimg.SymID]int)
	deps := make(map[string]bool)
	addPLT := func(sym elfimg.SymID, dep string) int {
		ri, ok := pltOf[sym]
		if !ok {
			ri = b.AddPLTReloc(sym)
			pltOf[sym] = ri
			if dep != "" && !deps[dep] {
				deps[dep] = true
				b.AddDep(dep)
			}
		}
		return ri
	}
	addGOT := func(sym elfimg.SymID) {
		if _, ok := gotOf[sym]; !ok {
			gotOf[sym] = b.AddGOTReloc(sym)
		}
	}

	// Utility calls at random from module functions.
	for _, fi := range funcs {
		if cfg.NumUtils > 0 && r.Bool(cfg.UtilCallProb) {
			lib := r.Intn(cfg.NumUtils)
			tsyms := g.utilFuncSyms[lib]
			if len(tsyms) > 0 {
				sym := tsyms[r.Intn(len(tsyms))]
				ri := addPLT(sym, fmt.Sprintf("libutility%03d.so", lib))
				b.AddCall(fi, elfimg.Call{Kind: elfimg.CallPLT, Target: ri})
				addGOT(g.utilDataSyms[lib]) // touch the library's state too
			}
		}
		// Python C-API usage (no DT_NEEDED: the executable provides it).
		if r.Bool(cfg.APICallProb) {
			sym := g.apiFuncSyms[r.Intn(len(g.apiFuncSyms))]
			ri := addPLT(sym, "")
			b.AddCall(fi, elfimg.Call{Kind: elfimg.CallPLT, Target: ri})
		}
	}
	// Baseline API data references (PyExc_*, type objects, ...).
	for i := 0; i < apiDataRefsPerModule && i < len(g.apiDataSyms); i++ {
		addGOT(g.apiDataSyms[r.Intn(len(g.apiDataSyms))])
	}

	// Cross-module dependencies (§III): this module exports one extra
	// function; a few of its functions call earlier modules' exports.
	if cfg.CrossModuleCalls {
		cross := g.addFunc(b, r)
		g.crossSyms[m] = b.FuncSymID(cross)
		if m > 0 {
			for i := 0; i < crossCallSites; i++ {
				target := r.Intn(m)
				if g.crossSyms[target] == 0 {
					continue
				}
				ri := addPLT(g.crossSyms[target], w.Modules[target].Name)
				b.AddCall(funcs[r.Intn(nf)], elfimg.Call{Kind: elfimg.CallPLT, Target: ri})
			}
		}
	}

	// Module bookkeeping: an exported module-def data symbol.
	b.AddSymbol(g.id(), g.nameLen(r), 256, false)

	b.SetData(cfg.Sizes.DataPerModule).SetRoData(8 << 10).SetDebug(debug)
	img, err := b.Build()
	if err != nil {
		return nil, "", err
	}
	return img, pyName, nil
}
