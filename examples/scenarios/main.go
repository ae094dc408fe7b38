// Scenarios: run the scenario catalog (internal/scenario) through the
// parallel experiment runner and print one headline number per
// scenario. Each scenario carries its own invariant hooks — if this
// program prints results, the simulator passed them all.
package main

import (
	"context"
	"fmt"
	"log"

	pynamic "repro"

	"repro/internal/scenario"
)

func main() {
	eng, err := pynamic.New()
	if err != nil {
		log.Fatal(err)
	}
	res, err := eng.RunMatrixCtx(context.Background(), pynamic.MatrixSpec{
		Experiments: scenario.Names(), // the whole catalog
		Repeats:     1,
		Seed:        2007, // any nonzero seed reproduces bit-identically
		Workers:     4,
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("scenario catalog: %d cells, all invariants honoured\n\n", res.Cells())
	headline := map[string]string{
		scenario.Prefix + "startup-storm":    "cold_phase1_sec",
		scenario.Prefix + "reimport-churn":   "churn_speedup_x",
		scenario.Prefix + "mixed-builds":     "makespan_sec",
		scenario.Prefix + "import-shuffle":   "order_delta_x",
		scenario.Prefix + "nfs-cold-warm":    "warm_speedup_x",
		scenario.Prefix + "symbol-collision": "probes_per_lookup",
		scenario.Prefix + "straggler-node":   "startup_slowdown_x",
		scenario.Prefix + "rank-skew":        "tail_stretch_x",
	}
	for _, er := range res.Experiments {
		key := headline[er.Name]
		fmt.Printf("%-28s %s:\n", er.Name, key)
		for _, a := range er.Aggregates {
			fmt.Printf("    %-48s %10.3f\n", a.Params.Canonical(), a.Stats[key].Mean)
		}
	}
}
