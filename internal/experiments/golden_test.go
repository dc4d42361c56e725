package experiments

import (
	"os"
	"strings"
	"testing"
)

// TestExtraFiguresGolden pins the bytes of every extension figure at the
// default scales, in the form `papertables -sweeps -markdown` prints them:
// each figure's Markdown, separated by one blank line. The figures record
// each program once and replay it for every other run, so this pin is what
// proves a change to how they execute did not change what they report.
func TestExtraFiguresGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/extras.golden.md")
	if err != nil {
		t.Fatal(err)
	}
	var mds []string
	for _, id := range ExtraIDs() {
		f, err := BuildExtra(id, 0)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		mds = append(mds, f.Markdown())
	}
	if got := strings.Join(mds, "\n"); got != string(want) {
		t.Errorf("extension figures drifted from testdata/extras.golden.md:\n%s", got)
	}
}
