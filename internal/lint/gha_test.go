package lint

import (
	"go/token"
	"testing"
)

func sampleDiags() []Diagnostic {
	return []Diagnostic{
		{
			Check:   "hotpathalloc",
			Pos:     token.Position{Filename: "/repo/internal/vm/vm.go", Line: 42, Column: 7},
			Message: "make on a hot path without a len/cap growth guard",
		},
		{
			Check:   "lint",
			Pos:     token.Position{Filename: "/elsewhere/x.go", Line: 3, Column: 1},
			Message: "oddities: 100% strange,\nmulti-line",
		},
	}
}

// TestGHALine pins the workflow-command format and its escaping.
func TestGHALine(t *testing.T) {
	diags := sampleDiags()
	if got, want := GHALine("/repo", diags[0]),
		"::error file=internal/vm/vm.go,line=42,col=7,title=hotpathalloc::make on a hot path without a len/cap growth guard"; got != want {
		t.Errorf("gha line:\n got %q\nwant %q", got, want)
	}
	if got, want := GHALine("/repo", diags[1]),
		"::error file=/elsewhere/x.go,line=3,col=1,title=lint::oddities: 100%25 strange,%0Amulti-line"; got != want {
		t.Errorf("gha escaping:\n got %q\nwant %q", got, want)
	}
}
