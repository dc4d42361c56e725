package sweep

import (
	"fmt"
	"math"
	"math/bits"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/difftest"
	"repro/internal/dynopt"
	"repro/internal/profile"
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

// spanPerturbations returns the points that differ from base in
// HistoryCap alone and lie inside span, the span of base's run: its low
// end, the capacity halfway between it and base's, and its high end or
// 2·cap+1 when that is lower.
func spanPerturbations(base core.Params, span profile.Span) []core.Params {
	c := historyCap(base)
	if !span.Contains(c) {
		panic(fmt.Sprintf("span %+v misses its own capacity %d", span, c))
	}
	var out []core.Params
	lo, hi := max(span.Lo, 1), min(span.Hi, 2*c+1)
	for _, h := range []int{lo, (lo + c) / 2, hi} {
		if h != c {
			p := base
			p.HistoryCap = h
			out = append(out, p)
		}
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
// A selector that reads HistoryCap must report its run's history span, and
// moving HistoryCap to capacities inside that span must leave its reports
// byte-equal too, for both. Adaptive reads every field, so only the
// reference and span checks apply to it.
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
		reads, ok := paramReads[name]
		if !ok {
			t.Errorf("selector %q has no row in paramReads", name)
		}
		sel, err := NewSelector(name, core.DefaultParams())
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := sel.(core.HistorySpanner); reads&pHistoryCap != 0 && !ok {
			t.Errorf("selector %q reads HistoryCap but reports no history span", name)
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
				if reads&pHistoryCap != 0 {
					span := shard.selectors[name].(core.HistorySpanner).HistorySpan()
					for _, p := range spanPerturbations(in.base, span) {
						if got := report(p); got != want {
							t.Fatalf("%s: %s at HistoryCap %d, inside the span %+v of its run at %d, reports\n%s\nwant\n%s",
								in.name, name, p.HistoryCap, span, in.base.HistoryCap, got, want)
						}
						if newRef == nil {
							continue
						}
						if got := refReport(p); got != want {
							t.Fatalf("%s: the frozen %s at HistoryCap %d, inside the span %+v of its run at %d, reports\n%s\nwant\n%s",
								in.name, name, p.HistoryCap, span, in.base.HistoryCap, got, want)
						}
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

// TestHistorySpanSharing pins how the engine matches HistoryCap: by the
// effective capacity against the leader's span. HistoryCap 0 runs at the
// paper's 500, so the cells at 0 and at 500 of each selector that reads it
// share; a capacity just below the span of the run at 0 (and just above it,
// when the span is bounded) does not, whether or not it would report the
// same. Every grid must also match the one-byte-budget live reference,
// which shares nothing.
func TestHistorySpanSharing(t *testing.T) {
	const workload = "gcc"
	withCap := func(c int) Config {
		p := core.DefaultParams()
		p.HistoryCap = c
		return Config{Params: p}
	}
	run := func(g Grid, wantShared uint64) {
		t.Helper()
		live, _ := runMemoGrid(t, g, 1, 1)
		got, st := runMemoGrid(t, g, 1, 0)
		diffMemoRuns(t, live, got)
		if st.Shared != wantShared {
			t.Errorf("%v at HistoryCap %d, %d: %d jobs shared, want %d", g.Selectors,
				g.Configs[0].Params.HistoryCap, g.Configs[1].Params.HistoryCap, st.Shared, wantShared)
		}
	}
	sels := []string{LEI, LEIComb, Adaptive}
	run(Grid{Workloads: []string{workload}, Scale: testScale, Selectors: sels, Configs: []Config{withCap(0), withCap(500)}}, 3)

	p := workloads.MustGet(workload).Build(testScale)
	shard := NewShard()
	for _, name := range sels {
		if _, err := shard.Run(p, Job{Workload: workload, Selector: name}); err != nil {
			t.Fatal(err)
		}
		span := shard.selectors[name].(core.HistorySpanner).HistorySpan()
		if span.Lo <= 1 {
			t.Fatalf("%s on %s: span %+v has no capacity below it to test", name, workload, span)
		}
		outside := []int{span.Lo - 1}
		if span.Hi < math.MaxInt {
			outside = append(outside, span.Hi+1)
		}
		for _, c := range outside {
			run(Grid{Workloads: []string{workload}, Scale: testScale, Selectors: []string{name}, Configs: []Config{withCap(0), withCap(c)}}, 0)
		}
	}
}
