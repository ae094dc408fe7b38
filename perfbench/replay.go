package main

import (
	"context"
	"fmt"
	"time"

	pynamic "repro"
	"repro/internal/cluster"
	"repro/internal/dynld"
	"repro/internal/fsim"
	"repro/internal/memsim"
	"repro/internal/pyvm"
	"repro/internal/simtime"
)

// replayTimes is one spec's rank-0 replay: host time per stage and the
// memory traffic the rank issued.
type replayTimes struct {
	index, startup, imports, visit time.Duration
	accesses, bytes                uint64
}

// countingMemory counts the accesses a rank issues to its memory model
// and the bytes they cover; Probe is n single-line accesses.
type countingMemory struct {
	memsim.Memory
	line            uint64
	accesses, bytes uint64
}

func (m *countingMemory) Touch(k memsim.Kind, addr, size uint64) {
	m.accesses++
	m.bytes += size
	m.Memory.Touch(k, addr, size)
}

func (m *countingMemory) Stream(k memsim.Kind, base, size uint64) {
	m.accesses++
	m.bytes += size
	m.Memory.Stream(k, base, size)
}

func (m *countingMemory) Probe(k memsim.Kind, base, size, n uint64) {
	m.accesses += n
	m.bytes += n * m.line
	m.Memory.Probe(k, base, size, n)
}

// replayRank0 re-executes rank 0 of spec's job through the public calls
// of dynld and pyvm, in the order the job engine makes them: build the
// shared first-definer index, map the executable (and, for Link builds,
// the prelinked DSOs), import every module, visit every entry. It fails
// unless the loader's and interpreter's statistics equal want's, rank 0
// of the job's result.
func replayRank0(ctx context.Context, eng *pynamic.Engine, spec pynamic.Spec, want pynamic.RankMetrics) (replayTimes, error) {
	var rt replayTimes
	exp, err := eng.ExpandSpec(spec)
	if err != nil {
		return rt, err
	}
	w, err := eng.GenerateCtx(ctx, *exp.Gen)
	if err != nil {
		return rt, err
	}
	jc := *exp.Job
	clust := jc.Cluster
	if clust.Nodes == 0 {
		clust = cluster.Zeus()
	}
	place, err := cluster.PlaceWith(clust, jc.NTasks, jc.Placement)
	if err != nil {
		return rt, err
	}

	t := time.Now()
	b := dynld.NewIndexBuilder(append(w.AllImages(), w.Exe)...)
	if err := b.Load(w.Exe.Name); err != nil {
		return rt, err
	}
	if jc.Mode != pynamic.Vanilla {
		if err := b.Load(w.Sonames()...); err != nil {
			return rt, err
		}
	}
	for _, name := range w.ModuleNames() {
		soname, ok := w.Find(name)
		if !ok {
			return rt, fmt.Errorf("no extension DSO for module %s", name)
		}
		if err := b.Load(soname); err != nil {
			return rt, err
		}
	}
	index := b.Index()
	rt.index = time.Since(t)

	fs, err := fsim.New(fsim.Defaults(), place.NodesUsed())
	if err != nil {
		return rt, err
	}
	for _, img := range w.AllImages() {
		fs.Create(img.Path, img.FileSize())
	}
	fs.Create(w.Exe.Path, w.Exe.FileSize())
	fs.DropCaches()
	memCfg := memsim.ZeusConfig()
	mem := &countingMemory{Memory: memsim.NewAnalytic(memCfg), line: memCfg.LineSize}
	ld := dynld.New(mem, fs, simtime.NewClock(clust.CoreHz), dynld.Options{
		BindNow: jc.Mode == pynamic.LinkBind,
		ASLR:    jc.ASLR,
		Seed:    jc.Seed,
		NodeID:  place.NodeOf(0),
		Clients: place.NodesUsed(),
		Shared:  index,
	})
	for _, img := range w.AllImages() {
		ld.Install(img)
	}
	ld.Install(w.Exe)
	interp := pyvm.New(mem, ld, w.Find, pyvm.Options{Coverage: jc.Coverage})

	t = time.Now()
	if _, err := ld.StartupExecutable(w.Exe); err != nil {
		return rt, err
	}
	if jc.Mode != pynamic.Vanilla {
		if err := ld.StartupPrelinked(w.Sonames()); err != nil {
			return rt, err
		}
	}
	rt.startup = time.Since(t)

	t = time.Now()
	modules := make([]*pyvm.Module, 0, len(w.ModuleNames()))
	for _, name := range w.ModuleNames() {
		mod, err := interp.Import(name)
		if err != nil {
			return rt, err
		}
		modules = append(modules, mod)
	}
	rt.imports = time.Since(t)

	t = time.Now()
	for _, mod := range modules {
		if err := interp.VisitEntry(mod); err != nil {
			return rt, err
		}
	}
	rt.visit = time.Since(t)
	rt.accesses, rt.bytes = mem.accesses, mem.bytes

	if got := ld.Stats(); got != want.Loader {
		return rt, fmt.Errorf("replayed dynld.Stats %+v, job result has %+v", got, want.Loader)
	}
	if got := interp.Stats(); got != want.VM {
		return rt, fmt.Errorf("replayed pyvm.Stats %+v, job result has %+v", got, want.VM)
	}
	return rt, nil
}
