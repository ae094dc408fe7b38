package report

import (
	"strings"
	"testing"
)

func TestTableRender(t *testing.T) {
	tab := &Table{
		Title:  "Demo",
		Header: []string{"name", "value"},
	}
	tab.AddRow("alpha", "1")
	tab.AddRow("a-much-longer-name", "22")
	tab.AddNote("n=%d", 2)
	out := tab.Render()
	if !strings.Contains(out, "Demo\n====") {
		t.Errorf("missing title underline:\n%s", out)
	}
	if !strings.Contains(out, "a-much-longer-name") {
		t.Error("row missing")
	}
	if !strings.Contains(out, "note: n=2") {
		t.Error("note missing")
	}
	// Columns aligned: "alpha" padded to the longer name's width (18)
	// plus the two-space separator before its value cell.
	pad := strings.Repeat(" ", len("a-much-longer-name")-len("alpha")+2)
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "alpha") {
			if !strings.HasPrefix(line, "alpha"+pad+"1") {
				t.Errorf("column not aligned: %q", line)
			}
		}
	}
}

func TestRatio(t *testing.T) {
	if Ratio(10, 4) != 2.5 {
		t.Error("Ratio wrong")
	}
	if Ratio(1, 0) != 0 {
		t.Error("Ratio by zero should be 0")
	}
}

func TestChecksRendering(t *testing.T) {
	checks := []ShapeCheck{
		{Name: "ok", Pass: true, Got: "1.0x"},
		{Name: "bad", Pass: false, Got: "0.1x"},
	}
	out := RenderChecks(checks)
	if !strings.Contains(out, "[PASS] ok") || !strings.Contains(out, "[FAIL] bad") {
		t.Errorf("render: %s", out)
	}
	if AllPass(checks) {
		t.Error("AllPass with a failure")
	}
	if !AllPass(checks[:1]) {
		t.Error("AllPass rejected all-pass set")
	}
}

func TestPaperValuesInternallyConsistent(t *testing.T) {
	// Table I totals equal the sum of their phases (the paper's own
	// arithmetic; Vanilla 1.5+152.8+2.9 = 157.2 etc.).
	for mode, p := range PaperTableI {
		sum := p.Startup + p.Import + p.Visit
		if diff := sum - p.Total; diff > 0.11 || diff < -0.11 {
			t.Errorf("%s: phases sum to %.1f, total %.1f", mode, sum, p.Total)
		}
	}
	// Table III totals: 287+9+1100+17+92 = 1505 ≈ published 1504;
	// 665+13+1100+36+348 = 2162.
	if got := PaperTableIII["Pynamic"].Total(); got != 2162 {
		t.Errorf("Pynamic column total %v, want 2162", got)
	}
	if got := PaperTableIII["real app"].Total(); got < 1503 || got > 1506 {
		t.Errorf("real app column total %v, want ~1504", got)
	}
	// Cost model: with reinsertion exactly doubles without.
	if PaperCostModelSeconds != 2*PaperCostModelNoBreakpoints {
		t.Error("cost model constants inconsistent")
	}
	// Table IV: warm totals are roughly half the cold totals.
	for name, p := range PaperTableIV {
		cold := p.ColdPhase1 + p.ColdPhase2
		warm := p.WarmPhase1 + p.WarmPhase2
		if r := cold / warm; r < 1.5 || r > 3 {
			t.Errorf("%s cold/warm = %.2f, expected ~2", name, r)
		}
	}
}

func TestDist(t *testing.T) {
	if got := Dist(0.5, 0.75, 1.25, 2); got != "0.5/0.75/1.25/2" {
		t.Fatalf("Dist = %q", got)
	}
	if got := Dist(0, 0.001, 0.0004, 3.14159); got != "0/0.001/0/3.142" {
		t.Fatalf("Dist = %q", got)
	}
}
