// Toolstartup: the Table IV scenario — attach a TotalView-style
// parallel debugger to a 32-task job twice, cold then warm, for both
// the synthetic real-application model and its Pynamic stand-in.
//
// The first attach drags every DSO's symbol and debug sections through
// NFS into each node's disk buffer cache; the second is served from
// cache, which is the paper's explanation for warm startup being about
// twice as fast.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"

	pynamic "repro"

	"repro/internal/fsim"
)

func main() {
	scale := flag.Int("scale", 1, "divide DSO counts by this factor (1 = full Table IV)")
	tasks := flag.Int("tasks", 32, "MPI tasks (the paper used 32)")
	flag.Parse()

	ctx := context.Background()
	eng, err := pynamic.New()
	if err != nil {
		log.Fatal(err)
	}
	for _, model := range []struct {
		name string
		cfg  pynamic.Config
	}{
		{"real application model", pynamic.RealAppModel()},
		{"Pynamic model", pynamic.LLNLModel()},
	} {
		cfg := model.cfg
		if *scale > 1 {
			cfg = cfg.Scaled(*scale)
		}
		w, err := eng.GenerateCtx(ctx, cfg)
		if err != nil {
			log.Fatal(err)
		}
		// One filesystem shared by both attaches: that's what makes the
		// second one warm.
		fs, err := fsim.New(fsim.Defaults(), 4)
		if err != nil {
			log.Fatal(err)
		}
		tc := pynamic.ToolStartupConfig{Workload: w, Tasks: *tasks, FS: fs}
		cold, err := eng.ToolAttachCtx(ctx, tc)
		if err != nil {
			log.Fatal(err)
		}
		warm, err := eng.ToolAttachCtx(ctx, tc)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s (%d DSOs, %d tasks):\n",
			model.name, cfg.NumModules+cfg.NumUtils, *tasks)
		fmt.Printf("  cold startup: phase1 %6.1fs  phase2 %6.1fs  total %6.1fs\n",
			cold.Phase1, cold.Phase2, cold.Total())
		fmt.Printf("  warm startup: phase1 %6.1fs  phase2 %6.1fs  total %6.1fs\n",
			warm.Phase1, warm.Phase2, warm.Total())
		fmt.Printf("  warm speedup: %.2fx (the disk buffer cache at work)\n\n",
			cold.Total()/warm.Total())
	}

	ex := pynamic.PaperCostExample()
	fmt.Println("and the II.B.3 cost model for a 500-library, 500-task job under tool control:")
	fmt.Printf("  M x N x (T1 + B x T2) = %.0f s (~83 minutes), %.0f s without breakpoint reinsertion\n",
		ex.TotalSeconds(), ex.WithoutReinsertion())
}
