// Package report renders experiment results as aligned text tables and
// carries the paper's published numbers (Tables I–IV and the §II.B.3
// example) so every experiment can print paper-vs-measured side by
// side and check that the *shape* of the result holds.
package report

import (
	"fmt"
	"strconv"
	"strings"
)

// Table is a simple aligned text table.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// AddRow appends a row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// AddNote appends a footnote line.
func (t *Table) AddNote(format string, args ...any) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// Render returns the table as text.
func (t *Table) Render() string {
	var b strings.Builder
	if t.Title != "" {
		b.WriteString(t.Title)
		b.WriteByte('\n')
		b.WriteString(strings.Repeat("=", len(t.Title)))
		b.WriteByte('\n')
	}
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			if i < len(widths) {
				fmt.Fprintf(&b, "%-*s", widths[i], c)
			} else {
				b.WriteString(c)
			}
		}
		b.WriteByte('\n')
	}
	writeRow(t.Header)
	total := 0
	for _, w := range widths {
		total += w + 2
	}
	b.WriteString(strings.Repeat("-", total))
	b.WriteByte('\n')
	for _, row := range t.Rows {
		writeRow(row)
	}
	for _, n := range t.Notes {
		b.WriteString("  note: ")
		b.WriteString(n)
		b.WriteByte('\n')
	}
	return b.String()
}

// Ratio returns a/b, or 0 when b == 0.
func Ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// Dist renders a per-rank metric distribution as the compact
// "min/mean/p99/max" cell the job-engine tables use.
func Dist(min, mean, p99, max float64) string {
	return fmt.Sprintf("%s/%s/%s/%s",
		trimFloat(min), trimFloat(mean), trimFloat(p99), trimFloat(max))
}

// trimFloat formats a seconds value at table precision without
// trailing zeros ("0.5", not "0.500").
func trimFloat(v float64) string {
	s := strconv.FormatFloat(v, 'f', 3, 64)
	s = strings.TrimRight(s, "0")
	return strings.TrimRight(s, ".")
}

// ShapeCheck is one verifiable property of a reproduced result ("Link
// visit is ≥50× Vanilla visit").
type ShapeCheck struct {
	Name string
	Pass bool
	Got  string
}

// RenderChecks formats shape-check outcomes.
func RenderChecks(checks []ShapeCheck) string {
	var b strings.Builder
	for _, c := range checks {
		mark := "PASS"
		if !c.Pass {
			mark = "FAIL"
		}
		fmt.Fprintf(&b, "  [%s] %-58s %s\n", mark, c.Name, c.Got)
	}
	return b.String()
}

// AllPass reports whether every check passed.
func AllPass(checks []ShapeCheck) bool {
	for _, c := range checks {
		if !c.Pass {
			return false
		}
	}
	return true
}

// ---- Paper reference values ----

// PaperPhase is one Table I row (seconds).
type PaperPhase struct {
	Startup, Import, Visit, Total float64
}

// PaperTableI holds Table I ("PYNAMIC RESULTS"), indexed Vanilla, Link,
// Link+Bind.
var PaperTableI = map[string]PaperPhase{
	"Vanilla":   {Startup: 1.5, Import: 152.8, Visit: 2.9, Total: 157.2},
	"Link":      {Startup: 5.7, Import: 56.4, Visit: 269.4, Total: 331.5},
	"Link+Bind": {Startup: 285.6, Import: 58.2, Visit: 2.8, Total: 346.6},
}

// PaperMisses is one Table II row (millions of L1 misses).
type PaperMisses struct {
	ImportL1D, ImportL1I, VisitL1D, VisitL1I float64
}

// PaperTableII holds Table II ("MILLIONS OF L1 DATA AND INSTRUCTION
// CACHE MISSES").
var PaperTableII = map[string]PaperMisses{
	"Vanilla":   {ImportL1D: 6269.8, ImportL1I: 0.47, VisitL1D: 3.9, VisitL1I: 18.0},
	"Link":      {ImportL1D: 4945.2, ImportL1I: 0.25, VisitL1D: 3076.5, VisitL1I: 19.8},
	"Link+Bind": {ImportL1D: 4945.3, ImportL1I: 0.26, VisitL1D: 3.9, VisitL1I: 17.9},
}

// PaperSizes is a Table III column in megabytes.
type PaperSizes struct {
	Text, Data, Debug, SymTab, StrTab float64
}

// Total sums the column.
func (p PaperSizes) Total() float64 {
	return p.Text + p.Data + p.Debug + p.SymTab + p.StrTab
}

// PaperTableIII holds Table III ("SIZE COMPARISON IN MEGABYTES").
var PaperTableIII = map[string]PaperSizes{
	"real app": {Text: 287, Data: 9, Debug: 1100, SymTab: 17, StrTab: 92},
	"Pynamic":  {Text: 665, Data: 13, Debug: 1100, SymTab: 36, StrTab: 348},
}

// PaperStartup is a Table IV column (seconds).
type PaperStartup struct {
	ColdPhase1, ColdPhase2 float64
	WarmPhase1, WarmPhase2 float64
}

// PaperTableIV holds Table IV ("TOTALVIEW STARTUP TIME COMPARISON"),
// converted from mins:secs.
var PaperTableIV = map[string]PaperStartup{
	"real app": {ColdPhase1: 328, ColdPhase2: 215, WarmPhase1: 99, WarmPhase2: 214},
	"Pynamic":  {ColdPhase1: 399, ColdPhase2: 201, WarmPhase1: 61, WarmPhase2: 190},
}

// PaperCostModelSeconds is the §II.B.3 example: ~83 minutes with
// breakpoint reinsertion, ~41.5 minutes without.
const (
	PaperCostModelSeconds       = 5000.0
	PaperCostModelNoBreakpoints = 2500.0
)
