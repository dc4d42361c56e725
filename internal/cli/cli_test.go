package cli

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/asm"
	"repro/internal/core"
	"repro/internal/dynopt"
	"repro/internal/sweep"
	"repro/internal/tracestream"
	"repro/internal/vm"
	"repro/internal/workloads"
)

// recordTrace records workload at scale into dir, under the header name
// label, and returns the file's path.
func recordTrace(t *testing.T, dir, workload, label string, scale int) string {
	t.Helper()
	path := filepath.Join(dir, label+".trace")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	_, err = tracestream.Record(workloads.MustGet(workload).Build(scale), label, scale, vm.Config{}, f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		t.Fatal(err)
	}
	return path
}

// TestResolveErrors feeds Resolve every malformed reference of each form
// and checks for a clean error that names the reference.
func TestResolveErrors(t *testing.T) {
	dir := t.TempDir()
	gzip := recordTrace(t, dir, "gzip", "gzip", 20)
	// A program recorded under a name the registry does not know.
	unregistered := recordTrace(t, dir, "gzip", "no-such-workload", 20)
	badAsm := filepath.Join(dir, "bad.asm")
	if err := os.WriteFile(badAsm, []byte("movi r1, 10\nfrobnicate r1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	missing := filepath.Join(dir, "missing")
	for _, tc := range []struct {
		name, ref string
		scale     int
	}{
		{"unknown name", "no-such-workload", 0},
		{"empty trace path", "trace:", 0},
		{"missing trace", "trace:" + missing, 0},
		{"trace with scale", "trace:" + gzip, 40},
		{"unregistered trace workload", "trace:" + unregistered, 0},
		{"missing asm", "asm:" + missing, 0},
		{"asm parse error", "asm:" + badAsm, 0},
		{"asm with scale", "asm:" + badAsm, 40},
	} {
		t.Run(tc.name, func(t *testing.T) {
			target, err := Resolve(tc.ref, tc.scale)
			if err == nil {
				t.Fatalf("Resolve(%q, %d) = %+v, want an error", tc.ref, tc.scale, target)
			}
			if !strings.Contains(err.Error(), tc.ref) {
				t.Errorf("error %q does not name the reference %q", err, tc.ref)
			}
		})
	}
}

// TestResolveForms checks the name and program each well-formed reference
// resolves to.
func TestResolveForms(t *testing.T) {
	dir := t.TempDir()
	gzip := recordTrace(t, dir, "gzip", "gzip", 20)
	spin := filepath.Join("..", "..", "examples", "programs", "spin.asm")
	src, err := os.ReadFile(spin)
	if err != nil {
		t.Fatal(err)
	}
	spinProg, err := asm.Parse(string(src))
	if err != nil {
		t.Fatal(err)
	}
	gzipLen := workloads.MustGet("gzip").Build(20).Len()
	for _, tc := range []struct {
		ref      string
		scale    int
		wantName string
		wantLen  int
	}{
		{"gzip", 20, "gzip", gzipLen},
		{"trace:" + gzip, 0, "gzip", gzipLen},
		{"asm:" + spin, 0, spin, spinProg.Len()},
	} {
		target, err := Resolve(tc.ref, tc.scale)
		if err != nil {
			t.Fatalf("Resolve(%q): %v", tc.ref, err)
		}
		if target.Name != tc.wantName {
			t.Errorf("Resolve(%q).Name = %q, want %q", tc.ref, target.Name, tc.wantName)
		}
		if target.Prog.Len() != tc.wantLen {
			t.Errorf("Resolve(%q).Prog has %d instructions, want %d", tc.ref, target.Prog.Len(), tc.wantLen)
		}
	}
}

// TestTraceTargetMatchesLive pins that a trace target's replayed report
// equals the live run of its recorded workload and scale, field for field.
func TestTraceTargetMatchesLive(t *testing.T) {
	const scale = 30
	path := recordTrace(t, t.TempDir(), "gzip", "gzip", scale)
	trace, err := Resolve("trace:"+path, 0)
	if err != nil {
		t.Fatal(err)
	}
	live, err := Resolve("gzip", scale)
	if err != nil {
		t.Fatal(err)
	}
	for _, selName := range sweep.SelectorNames() {
		reportJSON := func(target *Target) string {
			sel, err := sweep.NewSelector(selName, core.Params{})
			if err != nil {
				t.Fatal(err)
			}
			res, err := target.Run(dynopt.Config{Selector: sel})
			if err != nil {
				t.Fatal(err)
			}
			b, err := json.Marshal(res.Report)
			if err != nil {
				t.Fatal(err)
			}
			return string(b)
		}
		if got, want := reportJSON(trace), reportJSON(live); got != want {
			t.Errorf("%s: trace report differs from live\ntrace: %s\nlive:  %s", selName, got, want)
		}
	}
}
