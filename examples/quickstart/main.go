// Quickstart: generate a small Pynamic workload, run the driver in the
// default (Vanilla) configuration, and print the four phase times the
// paper's driver reports — startup, import, visit, MPI test.
package main

import (
	"context"
	"fmt"
	"log"

	pynamic "repro"
)

func main() {
	// A 1/20-scale version of the paper's LLNL-model configuration:
	// 14 Python modules + 10 utility libraries, ~1850 functions each.
	cfg := pynamic.LLNLModel().Scaled(20)
	cfg.Seed = 2007 // any seed reproduces bit-identical results

	ctx := context.Background()
	eng, err := pynamic.New()
	if err != nil {
		log.Fatal(err)
	}
	w, err := eng.GenerateCtx(ctx, cfg)
	if err != nil {
		log.Fatal(err)
	}
	sizes := w.Sizes()
	fmt.Printf("generated %d DSOs with %d functions (%.0f MB of sections)\n",
		len(w.AllImages()), w.TotalFuncs(), float64(sizes.Total())/1e6)

	m, err := eng.RunCtx(ctx, pynamic.RunConfig{
		Mode:       pynamic.Vanilla,
		Workload:   w,
		NTasks:     8,
		RunMPITest: true,
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("\nPynamic driver (Vanilla build, 8 tasks, simulated seconds):\n")
	fmt.Printf("  startup:  %8.3f\n", m.StartupSec)
	fmt.Printf("  import:   %8.3f   (%d modules, %d symbol lookups)\n",
		m.ImportSec, m.ModulesImported, m.Loader.Lookups)
	fmt.Printf("  visit:    %8.3f   (%d function calls)\n", m.VisitSec, m.FuncsVisited)
	fmt.Printf("  MPI test: %8.4f\n", m.MPISec)
	fmt.Printf("  total:    %8.3f\n", m.TotalSec())
}
