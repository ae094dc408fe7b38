// Package experiments implements one entry point per paper artifact:
//
//	E1 Table I    — driver phase times, three build modes
//	E2 Table II   — L1 cache misses at import and visit
//	E3 Table III  — section size comparison
//	E4 Table IV   — tool startup, cold/warm, real app vs Pynamic model
//	E5 §II.B.3    — the M×N×(T1+B×T2) cost model example
//	S1/S2/S3      — the paper's future-work scaling studies (§V)
//	A1/A2/A3      — ablations of binding policy, code coverage, ASLR
//
// Each experiment returns structured results plus a rendered
// paper-vs-measured table and shape checks. The Engine (package
// pynamic) runs the Tables through RunTable*Ctx with its cached
// generator, and the sweeps and ablations as runner experiments
// (RunnerRegistry).
package experiments

import (
	"context"
	"fmt"

	"repro/internal/cluster"
	"repro/internal/driver"
	"repro/internal/fsim"
	"repro/internal/pygen"
	"repro/internal/report"
	"repro/internal/simtime"
	"repro/internal/toolsim"
)

// Options configures experiment scale and fidelity.
type Options struct {
	// ScaleDiv divides DSO counts (1 = the paper's full configuration).
	// The full configuration needs the analytic memory model; detailed
	// runs should use ScaleDiv ≥ 20.
	ScaleDiv int
	// Backend selects the memory model.
	Backend driver.MemBackend
	// Tasks is the MPI job size (the paper used 32 for Table IV).
	Tasks int
	// Seed overrides the workload seed (0 = paper default).
	Seed uint64
}

func (o Options) workloadConfig() pygen.Config {
	cfg := pygen.LLNLModel()
	if o.Seed != 0 {
		cfg.Seed = o.Seed
	}
	if o.ScaleDiv > 1 {
		cfg = cfg.Scaled(o.ScaleDiv)
	}
	return cfg
}

func (o Options) tasks() int {
	if o.Tasks <= 0 {
		return 32
	}
	return o.Tasks
}

// Generator produces a workload from a configuration. The Engine
// facade passes its workload-cache-backed GenerateCtx here so Table
// runs over a repeated configuration skip regeneration;
// pygen.GenerateCtx is the uncached one.
type Generator func(ctx context.Context, cfg pygen.Config) (*pygen.Workload, error)

// ---------- E1 / E2: Tables I and II ----------

// TableIResult carries the three build-mode runs.
type TableIResult struct {
	Options Options
	Config  pygen.Config
	Rows    []*driver.Metrics // Vanilla, Link, Link+Bind
}

// RunTableICtx executes the driver in all three build configurations
// over one workload from gen (E1; the same runs provide E2).
func RunTableICtx(ctx context.Context, opts Options, gen Generator) (*TableIResult, error) {
	cfg := opts.workloadConfig()
	w, err := gen(ctx, cfg)
	if err != nil {
		return nil, err
	}
	res := &TableIResult{Options: opts, Config: cfg}
	for _, mode := range []driver.BuildMode{driver.Vanilla, driver.Link, driver.LinkBind} {
		m, err := driver.RunCtx(ctx, driver.Config{
			Mode:       mode,
			Backend:    opts.Backend,
			Workload:   w,
			NTasks:     opts.tasks(),
			RunMPITest: true,
			Seed:       cfg.Seed,
		})
		if err != nil {
			return nil, fmt.Errorf("mode %s: %w", mode, err)
		}
		res.Rows = append(res.Rows, m)
	}
	return res, nil
}

// RenderTableI formats the Table I reproduction.
func (r *TableIResult) RenderTableI() string {
	t := &report.Table{
		Title:  "Table I: Pynamic results (seconds; paper values in parentheses)",
		Header: []string{"version", "startup", "import", "visit", "total", "mpi test"},
	}
	for _, m := range r.Rows {
		p := report.PaperTableI[m.Mode.String()]
		t.AddRow(m.Mode.String(),
			fmt.Sprintf("%s (%.1f)", simtime.Seconds(m.StartupSec), p.Startup),
			fmt.Sprintf("%s (%.1f)", simtime.Seconds(m.ImportSec), p.Import),
			fmt.Sprintf("%s (%.1f)", simtime.Seconds(m.VisitSec), p.Visit),
			fmt.Sprintf("%s (%.1f)", simtime.Seconds(m.TotalSec()), p.Total),
			fmt.Sprintf("%.4f", m.MPISec),
		)
	}
	if r.Options.ScaleDiv > 1 {
		t.AddNote("workload scaled by 1/%d (%d modules, %d utils)",
			r.Options.ScaleDiv, r.Config.NumModules, r.Config.NumUtils)
	}
	return t.Render()
}

// ChecksTableI verifies the Table I shape claims.
func (r *TableIResult) ChecksTableI() []report.ShapeCheck {
	v, l, lb := r.Rows[0], r.Rows[1], r.Rows[2]
	importSpeedup := report.Ratio(v.ImportSec, l.ImportSec)
	visitBlowup := report.Ratio(l.VisitSec, v.VisitSec)
	shift := report.Ratio(lb.StartupSec, l.StartupSec+l.VisitSec)
	return []report.ShapeCheck{
		{
			Name: "Link import ~3x faster than Vanilla (paper 2.7x)",
			Pass: importSpeedup > 1.8 && importSpeedup < 6,
			Got:  fmt.Sprintf("%.1fx", importSpeedup),
		},
		{
			Name: "Link visit >=50x slower than Vanilla (paper ~93x)",
			Pass: visitBlowup >= 50,
			Got:  fmt.Sprintf("%.0fx", visitBlowup),
		},
		{
			Name: "Link+Bind startup absorbs the lazy visit cost",
			Pass: shift > 0.7 && shift < 1.4,
			Got:  fmt.Sprintf("startup/(link startup+visit) = %.2f", shift),
		},
		{
			Name: "Link+Bind visit returns to Vanilla level",
			Pass: lb.VisitSec < 3*v.VisitSec+0.5,
			Got:  fmt.Sprintf("%.1fs vs %.1fs", lb.VisitSec, v.VisitSec),
		},
		{
			Name: "totals ordered Vanilla < Link < Link+Bind",
			Pass: v.TotalSec() < l.TotalSec() && l.TotalSec() < lb.TotalSec(),
			Got: fmt.Sprintf("%.0f < %.0f < %.0f",
				v.TotalSec(), l.TotalSec(), lb.TotalSec()),
		},
		{
			Name: "import times nearly equal for Link and Link+Bind",
			Pass: report.Ratio(lb.ImportSec, l.ImportSec) > 0.9 &&
				report.Ratio(lb.ImportSec, l.ImportSec) < 1.1,
			Got: fmt.Sprintf("%.1fs vs %.1fs", lb.ImportSec, l.ImportSec),
		},
	}
}

// CoreChecks returns the scale-robust subset of the Table I/II shape
// checks: the qualitative orderings that hold at any workload scale.
// The quantitative ratio checks (3x import speedup, 50x visit blowup)
// only emerge at the paper's full 495-DSO scale, because lookup cost
// compounds with search-scope depth — which is itself the S1 scaling
// story.
func (r *TableIResult) CoreChecks() []report.ShapeCheck {
	v, l, lb := r.Rows[0], r.Rows[1], r.Rows[2]
	return []report.ShapeCheck{
		{
			Name: "lazy binding makes Link visit slower than Vanilla visit",
			Pass: l.VisitSec > 2*v.VisitSec,
			Got:  fmt.Sprintf("%.3fs vs %.3fs", l.VisitSec, v.VisitSec),
		},
		{
			Name: "Link+Bind startup absorbs the lazy visit cost",
			Pass: report.Ratio(lb.StartupSec, l.StartupSec+l.VisitSec) > 0.7 &&
				report.Ratio(lb.StartupSec, l.StartupSec+l.VisitSec) < 1.4,
			Got: fmt.Sprintf("ratio %.2f",
				report.Ratio(lb.StartupSec, l.StartupSec+l.VisitSec)),
		},
		{
			Name: "Link+Bind visit returns to Vanilla level",
			Pass: lb.VisitSec < 3*v.VisitSec+0.5,
			Got:  fmt.Sprintf("%.3fs vs %.3fs", lb.VisitSec, v.VisitSec),
		},
		{
			Name: "Vanilla import misses exceed Link import misses",
			Pass: v.Import.L1DMissM > l.Import.L1DMissM,
			Got:  fmt.Sprintf("%.1fM vs %.1fM", v.Import.L1DMissM, l.Import.L1DMissM),
		},
		{
			Name: "Link visit misses dwarf Vanilla visit misses",
			Pass: l.Visit.L1DMissM > 10*v.Visit.L1DMissM,
			Got:  fmt.Sprintf("%.1fM vs %.2fM", l.Visit.L1DMissM, v.Visit.L1DMissM),
		},
		{
			Name: "no lazy resolutions outside the Link build",
			Pass: v.Loader.LazyResolutions == 0 && lb.Loader.LazyResolutions == 0 &&
				l.Loader.LazyResolutions > 0,
			Got: fmt.Sprintf("%d / %d / %d", v.Loader.LazyResolutions,
				l.Loader.LazyResolutions, lb.Loader.LazyResolutions),
		},
	}
}

// RenderTableII formats the Table II reproduction from the same runs.
func (r *TableIResult) RenderTableII() string {
	t := &report.Table{
		Title: "Table II: millions of L1 data and instruction cache misses" +
			" (paper values in parentheses)",
		Header: []string{"version", "import L1-D", "import L1-I", "visit L1-D", "visit L1-I"},
	}
	for _, m := range r.Rows {
		p := report.PaperTableII[m.Mode.String()]
		t.AddRow(m.Mode.String(),
			fmt.Sprintf("%.1f (%.1f)", m.Import.L1DMissM, p.ImportL1D),
			fmt.Sprintf("%.2f (%.2f)", m.Import.L1IMissM, p.ImportL1I),
			fmt.Sprintf("%.1f (%.1f)", m.Visit.L1DMissM, p.VisitL1D),
			fmt.Sprintf("%.1f (%.1f)", m.Visit.L1IMissM, p.VisitL1I),
		)
	}
	t.AddNote("absolute counts run below the paper's (simpler hash chains, no conflict" +
		" misses in the analytic model); the structure matches: lazy binding turns the" +
		" visit phase into a data-cache-miss storm")
	return t.Render()
}

// ChecksTableII verifies the Table II shape claims.
func (r *TableIResult) ChecksTableII() []report.ShapeCheck {
	v, l, lb := r.Rows[0], r.Rows[1], r.Rows[2]
	return []report.ShapeCheck{
		{
			Name: "Vanilla import misses exceed Link import misses",
			Pass: v.Import.L1DMissM > l.Import.L1DMissM,
			Got:  fmt.Sprintf("%.0fM vs %.0fM", v.Import.L1DMissM, l.Import.L1DMissM),
		},
		{
			Name: "Link visit misses dwarf Vanilla visit misses (paper ~790x)",
			Pass: l.Visit.L1DMissM > 50*v.Visit.L1DMissM,
			Got:  fmt.Sprintf("%.0fM vs %.1fM", l.Visit.L1DMissM, v.Visit.L1DMissM),
		},
		{
			Name: "Link+Bind visit misses return to Vanilla level",
			Pass: report.Ratio(lb.Visit.L1DMissM, v.Visit.L1DMissM) < 2,
			Got:  fmt.Sprintf("%.1fM vs %.1fM", lb.Visit.L1DMissM, v.Visit.L1DMissM),
		},
		{
			Name: "Link and Link+Bind import misses nearly identical",
			Pass: report.Ratio(lb.Import.L1DMissM, l.Import.L1DMissM) > 0.95 &&
				report.Ratio(lb.Import.L1DMissM, l.Import.L1DMissM) < 1.05,
			Got: fmt.Sprintf("%.0fM vs %.0fM", lb.Import.L1DMissM, l.Import.L1DMissM),
		},
	}
}

// ---------- E3: Table III ----------

// TableIIIResult compares generated section sizes to the paper.
type TableIIIResult struct {
	PynamicMB report.PaperSizes // measured, in MB
	FuncCount int
}

// RunTableIIICtx takes the full LLNL-model workload from gen (always
// full scale: size accounting is cheap) and aggregates its section
// sizes.
func RunTableIIICtx(ctx context.Context, seed uint64, gen Generator) (*TableIIIResult, error) {
	cfg := pygen.LLNLModel()
	if seed != 0 {
		cfg.Seed = seed
	}
	w, err := gen(ctx, cfg)
	if err != nil {
		return nil, err
	}
	s := w.Sizes()
	toMB := func(b uint64) float64 { return float64(b) / 1e6 }
	return &TableIIIResult{
		PynamicMB: report.PaperSizes{
			Text:   toMB(s.Text),
			Data:   toMB(s.Data),
			Debug:  toMB(s.Debug),
			SymTab: toMB(s.SymTab),
			StrTab: toMB(s.StrTab),
		},
		FuncCount: w.TotalFuncs(),
	}, nil
}

// Render formats the Table III reproduction.
func (r *TableIIIResult) Render() string {
	real := report.PaperTableIII["real app"]
	paper := report.PaperTableIII["Pynamic"]
	t := &report.Table{
		Title:  "Table III: size comparison in megabytes",
		Header: []string{"section", "real app (paper)", "Pynamic (paper)", "Pynamic (ours)"},
	}
	row := func(name string, realV, paperV, ours float64) {
		t.AddRow(name, fmt.Sprintf("%.0f", realV), fmt.Sprintf("%.0f", paperV),
			fmt.Sprintf("%.0f", ours))
	}
	row("Text", real.Text, paper.Text, r.PynamicMB.Text)
	row("Data", real.Data, paper.Data, r.PynamicMB.Data)
	row("Debug", real.Debug, paper.Debug, r.PynamicMB.Debug)
	row("Symbol Table", real.SymTab, paper.SymTab, r.PynamicMB.SymTab)
	row("String Table", real.StrTab, paper.StrTab, r.PynamicMB.StrTab)
	row("total", real.Total(), paper.Total(), r.PynamicMB.Total())
	t.AddNote("%d generated functions across 495 DSOs", r.FuncCount)
	return t.Render()
}

// Checks verifies the generated sizes land near the paper's Pynamic
// column (±20%).
func (r *TableIIIResult) Checks() []report.ShapeCheck {
	paper := report.PaperTableIII["Pynamic"]
	within := func(name string, got, want float64) report.ShapeCheck {
		ratio := report.Ratio(got, want)
		return report.ShapeCheck{
			Name: fmt.Sprintf("%s within 20%% of paper (%.0f MB)", name, want),
			Pass: ratio > 0.8 && ratio < 1.2,
			Got:  fmt.Sprintf("%.0f MB (%.2fx)", got, ratio),
		}
	}
	return []report.ShapeCheck{
		within("Text", r.PynamicMB.Text, paper.Text),
		within("Data", r.PynamicMB.Data, paper.Data),
		within("Debug", r.PynamicMB.Debug, paper.Debug),
		within("Symbol Table", r.PynamicMB.SymTab, paper.SymTab),
		within("String Table", r.PynamicMB.StrTab, paper.StrTab),
		within("total", r.PynamicMB.Total(), paper.Total()),
	}
}

// ---------- E4: Table IV ----------

// TableIVResult holds both workload columns, cold and warm.
type TableIVResult struct {
	RealCold, RealWarm       toolsim.Phases
	PynamicCold, PynamicWarm toolsim.Phases
	ScaleDiv                 int
}

// RunTableIVCtx attaches the simulated debugger to the real-app model
// and the Pynamic model (workloads from gen) at 32 tasks, cold then
// warm (E4).
func RunTableIVCtx(ctx context.Context, opts Options, gen Generator) (*TableIVResult, error) {
	res := &TableIVResult{ScaleDiv: opts.ScaleDiv}
	run := func(cfg pygen.Config) (cold, warm toolsim.Phases, err error) {
		if opts.ScaleDiv > 1 {
			cfg = cfg.Scaled(opts.ScaleDiv)
		}
		w, err := gen(ctx, cfg)
		if err != nil {
			return cold, warm, err
		}
		place, err := cluster.Place(cluster.Zeus(), opts.tasks())
		if err != nil {
			return cold, warm, err
		}
		fs, err := fsim.New(fsim.Defaults(), place.NodesUsed())
		if err != nil {
			return cold, warm, err
		}
		tc := toolsim.Config{Workload: w, Tasks: opts.tasks(), FS: fs}
		if cold, err = toolsim.AttachCtx(ctx, tc); err != nil {
			return cold, warm, err
		}
		warm, err = toolsim.AttachCtx(ctx, tc)
		return cold, warm, err
	}
	var err error
	if res.RealCold, res.RealWarm, err = run(pygen.RealAppModel()); err != nil {
		return nil, fmt.Errorf("real app model: %w", err)
	}
	if res.PynamicCold, res.PynamicWarm, err = run(pygen.LLNLModel()); err != nil {
		return nil, fmt.Errorf("pynamic model: %w", err)
	}
	return res, nil
}

// Render formats the Table IV reproduction.
func (r *TableIVResult) Render() string {
	pr := report.PaperTableIV["real app"]
	pp := report.PaperTableIV["Pynamic"]
	t := &report.Table{
		Title: "Table IV: TotalView startup time comparison (mins:secs;" +
			" paper values in parentheses)",
		Header: []string{"cold/warm startup metric", "real app", "Pynamic"},
	}
	ms := simtime.MinSec
	t.AddRow("Cold Startup 1st phase",
		fmt.Sprintf("%s (%s)", ms(r.RealCold.Phase1), ms(pr.ColdPhase1)),
		fmt.Sprintf("%s (%s)", ms(r.PynamicCold.Phase1), ms(pp.ColdPhase1)))
	t.AddRow("Cold Startup 2nd phase",
		fmt.Sprintf("%s (%s)", ms(r.RealCold.Phase2), ms(pr.ColdPhase2)),
		fmt.Sprintf("%s (%s)", ms(r.PynamicCold.Phase2), ms(pp.ColdPhase2)))
	t.AddRow("Cold Startup total",
		fmt.Sprintf("%s (%s)", ms(r.RealCold.Total()), ms(pr.ColdPhase1+pr.ColdPhase2)),
		fmt.Sprintf("%s (%s)", ms(r.PynamicCold.Total()), ms(pp.ColdPhase1+pp.ColdPhase2)))
	t.AddRow("Warm Startup 1st phase",
		fmt.Sprintf("%s (%s)", ms(r.RealWarm.Phase1), ms(pr.WarmPhase1)),
		fmt.Sprintf("%s (%s)", ms(r.PynamicWarm.Phase1), ms(pp.WarmPhase1)))
	t.AddRow("Warm Startup 2nd phase",
		fmt.Sprintf("%s (%s)", ms(r.RealWarm.Phase2), ms(pr.WarmPhase2)),
		fmt.Sprintf("%s (%s)", ms(r.PynamicWarm.Phase2), ms(pp.WarmPhase2)))
	t.AddRow("Warm Startup total",
		fmt.Sprintf("%s (%s)", ms(r.RealWarm.Total()), ms(pr.WarmPhase1+pr.WarmPhase2)),
		fmt.Sprintf("%s (%s)", ms(r.PynamicWarm.Total()), ms(pp.WarmPhase1+pp.WarmPhase2)))
	return t.Render()
}

// Checks verifies the Table IV shape claims.
func (r *TableIVResult) Checks() []report.ShapeCheck {
	coldWarm := report.Ratio(r.PynamicCold.Total(), r.PynamicWarm.Total())
	model := report.Ratio(r.PynamicCold.Total(), r.RealCold.Total())
	phase2Drift := report.Ratio(r.PynamicCold.Phase2, r.PynamicWarm.Phase2)
	return []report.ShapeCheck{
		{
			Name: "warm startup ~2x faster than cold (paper 2.1-2.4x)",
			Pass: coldWarm > 1.5 && coldWarm < 3.5,
			Got:  fmt.Sprintf("%.1fx", coldWarm),
		},
		{
			Name: "Pynamic model tracks the real app within ~25%",
			Pass: model > 0.75 && model < 1.35,
			Got:  fmt.Sprintf("%.2fx", model),
		},
		{
			Name: "phase 2 nearly unchanged cold vs warm (files cached in phase 1)",
			Pass: phase2Drift > 0.9 && phase2Drift < 1.3,
			Got:  fmt.Sprintf("%.2fx", phase2Drift),
		},
		{
			Name: "cold speedup driven by phase 1",
			Pass: (r.PynamicCold.Phase1 - r.PynamicWarm.Phase1) >
				(r.PynamicCold.Phase2 - r.PynamicWarm.Phase2),
			Got: fmt.Sprintf("phase1 delta %.0fs, phase2 delta %.0fs",
				r.PynamicCold.Phase1-r.PynamicWarm.Phase1,
				r.PynamicCold.Phase2-r.PynamicWarm.Phase2),
		},
	}
}

// ---------- E5: cost model ----------

// CostModelResult holds the §II.B.3 reproduction.
type CostModelResult struct {
	Model         toolsim.CostModel
	WithB         float64
	WithoutB      float64
	EventSimWithB float64
}

// RunCostModel evaluates the paper's example analytically and by event
// simulation.
func RunCostModel() *CostModelResult {
	m := toolsim.PaperExample()
	return &CostModelResult{
		Model:         m,
		WithB:         m.TotalSeconds(),
		WithoutB:      m.WithoutReinsertion(),
		EventSimWithB: m.SimulateEvents(),
	}
}

// Render formats the cost-model reproduction.
func (r *CostModelResult) Render() string {
	t := &report.Table{
		Title: "Cost model (II.B.3): M x N x (T1 + B x T2)," +
			" M=500 libraries, N=500 tasks, T1=10ms, B=10, T2=1ms",
		Header: []string{"variant", "ours", "paper"},
	}
	t.AddRow("with breakpoint reinsertion",
		simtime.MinSec(r.WithB), simtime.MinSec(report.PaperCostModelSeconds))
	t.AddRow("without reinsertion (B=0)",
		simtime.MinSec(r.WithoutB), simtime.MinSec(report.PaperCostModelNoBreakpoints))
	t.AddRow("event-driven simulation", simtime.MinSec(r.EventSimWithB), "-")
	return t.Render()
}

// Checks verifies the closed form.
func (r *CostModelResult) Checks() []report.ShapeCheck {
	return []report.ShapeCheck{
		{
			Name: "closed form matches paper's ~83 minutes",
			Pass: r.WithB == report.PaperCostModelSeconds,
			Got:  fmt.Sprintf("%.0fs", r.WithB),
		},
		{
			Name: "reinsertion roughly doubles the cost (paper: ~2x)",
			Pass: report.Ratio(r.WithB, r.WithoutB) == 2.0,
			Got:  fmt.Sprintf("%.1fx", report.Ratio(r.WithB, r.WithoutB)),
		},
		{
			Name: "event simulation agrees with the closed form",
			Pass: diff(r.EventSimWithB, r.WithB) < 1e-6,
			Got:  fmt.Sprintf("%.3fs vs %.3fs", r.EventSimWithB, r.WithB),
		},
	}
}

func diff(a, b float64) float64 {
	if a > b {
		return a - b
	}
	return b - a
}
