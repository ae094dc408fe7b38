// Multiphysics: reproduce the paper's central experiment (§IV.A) — the
// same workload run under the three build configurations, showing how
// the choice of link/bind strategy moves cost between startup, import
// and visit.
//
// With -scale 1 this is the full 280-module + 215-utility LLNL model
// and the numbers correspond to Table I; the default scale keeps the
// example snappy.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"

	pynamic "repro"
)

func main() {
	scale := flag.Int("scale", 10, "divide DSO counts by this factor (1 = full Table I)")
	tasks := flag.Int("tasks", 32, "MPI tasks")
	flag.Parse()

	cfg := pynamic.LLNLModel()
	if *scale > 1 {
		cfg = cfg.Scaled(*scale)
	}
	fmt.Printf("LLNL multiphysics model: %d modules + %d utility libraries, avg %d functions\n\n",
		cfg.NumModules, cfg.NumUtils, cfg.AvgFuncsPerModule)

	ctx := context.Background()
	eng, err := pynamic.New()
	if err != nil {
		log.Fatal(err)
	}
	w, err := eng.GenerateCtx(ctx, cfg)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("%-10s %10s %10s %10s %10s   %s\n",
		"version", "startup", "import", "visit", "total", "what dominates")
	var vanillaVisit float64
	for _, mode := range []pynamic.BuildMode{pynamic.Vanilla, pynamic.Link, pynamic.LinkBind} {
		m, err := eng.RunCtx(ctx, pynamic.RunConfig{
			Mode:     mode,
			Workload: w,
			NTasks:   *tasks,
		})
		if err != nil {
			log.Fatal(err)
		}
		why := "dlopen(RTLD_NOW) symbol resolution at import"
		switch mode {
		case pynamic.Vanilla:
			vanillaVisit = m.VisitSec
		case pynamic.Link:
			why = fmt.Sprintf("lazy PLT binding at first call (%d resolver entries)",
				m.Loader.LazyResolutions)
		case pynamic.LinkBind:
			why = "LD_BIND_NOW shifts PLT resolution into startup"
		}
		fmt.Printf("%-10s %10.2f %10.2f %10.2f %10.2f   %s\n",
			mode, m.StartupSec, m.ImportSec, m.VisitSec, m.TotalSec(), why)
		if mode == pynamic.Link && vanillaVisit > 0 {
			fmt.Printf("%-10s %45s visit is %.0fx the Vanilla visit\n",
				"", "", m.VisitSec/vanillaVisit)
		}
	}
	fmt.Println("\ncompare against Table I of the paper: linking the DSOs into the")
	fmt.Println("executable speeds imports ~3x but makes visiting every function ~100x")
	fmt.Println("slower unless LD_BIND_NOW moves that cost into program startup.")
}
