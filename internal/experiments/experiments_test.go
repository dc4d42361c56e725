package experiments

import (
	"context"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/sweep"
)

// smallScale keeps the full 12x4 matrix fast in tests while still being
// large enough for selection thresholds to fire.
const smallScale = 60

func runAll(t *testing.T) *Results {
	t.Helper()
	res, err := RunAll(context.Background(), smallScale, core.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestRunAllAndFigures(t *testing.T) {
	res := runAll(t)
	if len(res.Reports) != 12 {
		t.Fatalf("benchmarks = %d", len(res.Reports))
	}
	for b, sels := range res.Reports {
		for s, rep := range sels {
			if rep.TotalInstrs == 0 {
				t.Errorf("%s/%s: empty report", b, s)
			}
			if rep.Workload != b {
				t.Errorf("%s/%s: workload label %q", b, s, rep.Workload)
			}
		}
	}
	for _, id := range FigureIDs() {
		f, err := Build(id, res)
		if err != nil {
			t.Fatal(err)
		}
		out := f.String()
		if !strings.Contains(out, "gzip") || !strings.Contains(out, "average") {
			t.Errorf("figure %s lacks rows:\n%s", id, out)
		}
		if f.Takeaway == "" || f.Title == "" {
			t.Errorf("figure %s missing title/takeaway", id)
		}
	}
	if _, err := Build("fig99", res); err == nil {
		t.Error("unknown figure accepted")
	}
}

func TestRunAllDeterministic(t *testing.T) {
	a := runAll(t)
	b := runAll(t)
	for bench, sels := range a.Reports {
		for sel, rep := range sels {
			if rep != b.Reports[bench][sel] {
				t.Errorf("%s/%s differs across runs", bench, sel)
			}
		}
	}
}

func TestNewSelector(t *testing.T) {
	for _, name := range AllSelectors() {
		s, err := sweep.NewSelector(name, core.DefaultParams())
		if err != nil || s.Name() != name {
			t.Errorf("NewSelector(%s) = %v, %v", name, s, err)
		}
	}
	if _, err := sweep.NewSelector("bogus", core.DefaultParams()); err == nil {
		t.Error("bogus selector accepted")
	}
}

func TestRunOneErrors(t *testing.T) {
	if _, err := RunOne("bogus", NET, 1, core.DefaultParams()); err == nil {
		t.Error("bogus workload accepted")
	}
	if _, err := RunOne("gzip", "bogus", 1, core.DefaultParams()); err == nil {
		t.Error("bogus selector accepted")
	}
}
