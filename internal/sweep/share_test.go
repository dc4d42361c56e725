package sweep

import (
	"fmt"
	"math/bits"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/difftest"
	"repro/internal/dynopt"
	"repro/internal/program"
	"repro/internal/tracestream"
	"repro/internal/vm"
	"repro/internal/workloads"
)

// shareInput is one recorded program and the parameter point its
// perturbations start from.
type shareInput struct {
	name   string
	corpus *tracestream.Corpus
	base   core.Params
}

// shareInputs records every SPEC workload at a small scale, run at the
// paper's parameters, and n random programs, each run at the low
// thresholds and small buffers of difftest.RandomParams so that short runs
// still select regions.
func shareInputs(t *testing.T, n int) []shareInput {
	t.Helper()
	record := func(name string, p *program.Program) *tracestream.Corpus {
		rec := tracestream.NewMemRecorder(p, name, 0)
		st, err := vm.Run(p, vm.Config{}, rec)
		if err != nil {
			t.Fatal(err)
		}
		return &rec.Corpus(st).Corpus
	}
	var in []shareInput
	for _, name := range workloads.SpecNames() {
		p := workloads.MustGet(name).Build(20)
		in = append(in, shareInput{name, record(name, p), core.DefaultParams()})
	}
	for seed := 0; seed < n; seed++ {
		p := workloads.Random(workloads.GenConfig{
			Seed:       int64(seed),
			Funcs:      seed % 4,
			MaxDepth:   2,
			Iters:      10 + seed%13,
			Constructs: 3 + seed%3,
		})
		name := fmt.Sprintf("random-%d", seed)
		in = append(in, shareInput{name, record(name, p), difftest.RandomParams(int64(seed))})
	}
	return in
}

// perturbations returns the points that differ from base in field f
// alone: a bool flipped, or an int at two other valid values, one low and
// one high.
func perturbations(base core.Params, f int) []core.Params {
	var out []core.Params
	set := func(apply func(v reflect.Value)) {
		p := base
		apply(reflect.ValueOf(&p).Elem().Field(f))
		out = append(out, p)
	}
	switch v := reflect.ValueOf(base).Field(f); v.Kind() {
	case reflect.Bool:
		set(func(fv reflect.Value) { fv.SetBool(!v.Bool()) })
	case reflect.Int:
		// The extremes make a misclassified field show on short runs: 1
		// cuts every trace limit to one block and every threshold to one.
		b := v.Int()
		lower := int64(1)
		if b == 1 {
			lower = 2
		}
		for _, x := range []int64{lower, 2*b + 1} {
			set(func(fv reflect.Value) { fv.SetInt(x) })
		}
	default:
		panic(fmt.Sprintf("core.Params field of kind %v", v.Kind()))
	}
	return out
}

// refSelectors builds difftest's frozen reference for each selector name
// that has one, as NewSelector configures the production selector.
var refSelectors = map[string]func(core.Params) core.Selector{
	NET:      func(p core.Params) core.Selector { return difftest.NewRefNET(p) },
	MojoNET:  func(p core.Params) core.Selector { return difftest.NewRefMojoNET(p, 30) },
	LEI:      func(p core.Params) core.Selector { return difftest.NewRefLEI(p) },
	NETComb:  func(p core.Params) core.Selector { return difftest.NewRefCombiner(core.BaseNET, p) },
	LEIComb:  func(p core.Params) core.Selector { return difftest.NewRefCombiner(core.BaseLEI, p) },
	Adaptive: func(p core.Params) core.Selector { return difftest.NewRefPhaseSelector(p) },
}

// TestShareProjectionCoversParams pins paramReads, the table the engine
// shares cells by. Every core.Params field must have its bit, so a new
// field fails here until it is classified; and for every selector, moving
// any field it is said to ignore must leave its reports byte-equal, on
// every SPEC workload and on random programs, for the production selector
// (pooled and Reset, as shards run it) and for difftest's frozen
// reference, which must also report what the production selector does.
// Adaptive reads every field, so only that last check applies to it.
func TestShareProjectionCoversParams(t *testing.T) {
	typ := reflect.TypeOf(core.Params{})
	if n := bits.OnesCount16(uint16(allParams)); n != typ.NumField() {
		t.Fatalf("core.Params has %d fields and paramSet %d bits: classify the new field in paramReads", typ.NumField(), n)
	}
	var full core.Params
	fv := reflect.ValueOf(&full).Elem()
	for f := 0; f < typ.NumField(); f++ {
		switch fv.Field(f).Kind() {
		case reflect.Bool:
			fv.Field(f).SetBool(true)
		case reflect.Int:
			fv.Field(f).SetInt(int64(f + 1))
		default:
			t.Fatalf("core.Params.%s has kind %v; extend project and perturbations", typ.Field(f).Name, fv.Field(f).Kind())
		}
	}
	for f := 0; f < typ.NumField(); f++ {
		got := reflect.ValueOf((allParams &^ (1 << f)).project(full))
		for g := 0; g < typ.NumField(); g++ {
			if got.Field(g).IsZero() != (g == f) {
				t.Fatalf("bit %d does not stand for core.Params.%s alone: projecting it out changes %s",
					f, typ.Field(f).Name, typ.Field(g).Name)
			}
		}
	}
	if allParams.project(full) != full {
		t.Fatal("projecting onto every field changes the params")
	}
	for _, name := range SelectorNames() {
		if _, ok := paramReads[name]; !ok {
			t.Errorf("selector %q has no row in paramReads", name)
		}
	}

	randoms := 50
	if testing.Short() {
		randoms = 10
	}
	inputs := shareInputs(t, randoms)
	shard := NewShard()
	for _, name := range SelectorNames() {
		reads := paramReads[name]
		var ignored []int
		for f := 0; f < typ.NumField(); f++ {
			if reads&(1<<f) == 0 {
				ignored = append(ignored, f)
			}
		}
		t.Run(name, func(t *testing.T) {
			newRef := refSelectors[name]
			for _, in := range inputs {
				report := func(p core.Params) string {
					rep, err := shard.Replay(in.corpus, Job{Workload: in.name, Selector: name, Params: p})
					if err != nil {
						t.Fatal(err)
					}
					return memoJSON(t, rep)
				}
				refReport := func(p core.Params) string {
					res, err := in.corpus.Replay(dynopt.Config{Selector: newRef(p)})
					if err != nil {
						t.Fatal(err)
					}
					res.Report.Workload = in.name
					return memoJSON(t, res.Report)
				}
				want := report(in.base)
				if newRef != nil {
					if ref := refReport(in.base); ref != want {
						t.Fatalf("%s: frozen reference reports\n%s\nwant\n%s", in.name, ref, want)
					}
				}
				for _, f := range ignored {
					for _, p := range perturbations(in.base, f) {
						if got := report(p); got != want {
							t.Fatalf("%s: %s reads %s, which paramReads marks ignored: at %+v it reports\n%s\nwant\n%s",
								in.name, name, typ.Field(f).Name, p, got, want)
						}
						if newRef == nil {
							continue
						}
						if got := refReport(p); got != want {
							t.Fatalf("%s: the frozen %s reads %s, which paramReads marks ignored: at %+v it reports\n%s\nwant\n%s",
								in.name, name, typ.Field(f).Name, p, got, want)
						}
					}
				}
			}
		})
	}
}
