// Command goldengen regenerates the pre-refactor driver golden
// (internal/job/testdata/driver_golden.json): the per-phase metrics of
// all three build modes at the reference workload and seed. The golden
// was captured from the monolithic driver BEFORE the job-engine
// refactor; regenerate it only when the simulation model itself
// changes deliberately.
package main

import (
	"context"
	"encoding/json"
	"os"

	"repro/internal/driver"
	"repro/internal/pygen"
)

func main() {
	cfg := pygen.LLNLModel().Scaled(20).ScaledFuncs(8)
	ctx := context.Background()
	w, err := pygen.GenerateCtx(ctx, cfg)
	if err != nil {
		panic(err)
	}
	out := map[string]*driver.Metrics{}
	for _, mode := range []driver.BuildMode{driver.Vanilla, driver.Link, driver.LinkBind} {
		m, err := driver.RunCtx(ctx, driver.Config{
			Mode: mode, Workload: w, NTasks: 8, Seed: cfg.Seed,
		})
		if err != nil {
			panic(err)
		}
		out[mode.String()] = m
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		panic(err)
	}
}
