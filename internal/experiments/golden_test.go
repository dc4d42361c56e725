package experiments

import (
	"context"
	"os"
	"strings"
	"testing"

	"repro/internal/sweep"
)

// checkGolden builds each figure in ids and requires their Markdown,
// separated by one blank line as papertables -markdown prints it, to equal
// the golden file byte for byte.
func checkGolden(t *testing.T, golden string, ids []string, build func(id string) (Figure, error)) {
	t.Helper()
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	var mds []string
	for _, id := range ids {
		f, err := build(id)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		mds = append(mds, f.Markdown())
	}
	if got := strings.Join(mds, "\n"); got != string(want) {
		t.Errorf("figures drifted from %s:\n%s", golden, got)
	}
}

// TestPaperFiguresGolden pins the bytes of every paper figure at the default
// scales, in the form `papertables -markdown` prints them. Every report
// metric a paper figure shows — exit domination and the cover set included —
// is computed by the one pooled analysis path, so this pin is what proves a
// change to that path did not change what the figures report.
func TestPaperFiguresGolden(t *testing.T) {
	res, err := RunAll(context.Background(), 0, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "testdata/paper.golden.md", FigureIDs(), func(id string) (Figure, error) {
		return Build(id, res)
	})
}

// TestExtraFiguresGolden pins the bytes of every extension figure at the
// default scales, in the form `papertables -sweeps -markdown` prints them.
// The figures record each program once and replay it for every other run,
// so this pin is what proves a change to how they execute did not change
// what they report. The figures share one Runner, as papertables runs them.
func TestExtraFiguresGolden(t *testing.T) {
	r := sweep.NewRunner()
	checkGolden(t, "testdata/extras.golden.md", ExtraIDs(), func(id string) (Figure, error) {
		return BuildExtra(r, id, 0)
	})
}
