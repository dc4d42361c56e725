package difftest

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/dynopt"
	"repro/internal/isa"
	"repro/internal/profile"
	"repro/internal/workloads"
)

// TestDiffAllWorkloads runs every named workload under each dense selector
// and its frozen map-based reference and requires byte-identical reports
// and region histories.
func TestDiffAllWorkloads(t *testing.T) {
	params := core.DefaultParams()
	// Lower thresholds so even the small micro workloads select regions.
	params.NETThreshold = 6
	params.LEIThreshold = 4
	params.HistoryCap = 120
	for _, name := range workloads.Names() {
		w, ok := workloads.Get(name)
		if !ok {
			t.Fatalf("workload %q missing", name)
		}
		p := w.Build(8)
		for _, pair := range Pairs(params) {
			if err := CompareRun(p, pair.Dense, pair.Ref); err != nil {
				t.Errorf("%s under %s: %v", name, pair.Name, err)
			}
		}
	}
}

// TestDiffRandomPrograms checks selector equivalence over a corpus of
// seeded random structured programs with varied selection parameters
// (including small history buffers that force eviction and dangling-hash
// recovery in the dense target table).
func TestDiffRandomPrograms(t *testing.T) {
	seeds := 1000
	if testing.Short() {
		seeds = 120
	}
	for seed := 0; seed < seeds; seed++ {
		p := workloads.Random(workloads.GenConfig{
			Seed:       int64(seed),
			Funcs:      seed % 4,
			MaxDepth:   2,
			Iters:      10 + seed%13,
			Constructs: 3 + seed%3,
		})
		params := RandomParams(int64(seed))
		for _, pair := range Pairs(params) {
			if err := CompareRun(p, pair.Dense, pair.Ref); err != nil {
				t.Fatalf("seed %d under %s: %v", seed, pair.Name, err)
			}
		}
	}
}

// TestDiffHistoryBuffer drives the dense-hash production history buffer and
// the frozen map-hash reference through identical randomized operation
// streams — insert, the LEI lookup/set-hash pair, and truncation after a
// position at or above a lookup's hit, as LEI truncates — and requires
// identical positions, hit/miss results, and cycle contents. After each
// stream it replays the stream on the reference at every capacity of the
// dense buffer's span, which must answer every lookup alike, and one below
// it, which must answer one differently: the span is sound, and tight from
// below.
func TestDiffHistoryBuffer(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		// Few addresses, short streams or large buffers leave a span wider
		// than the capacity itself.
		capacity := 1 + rng.Intn(40)
		addrs, nops := 4+rng.Intn(45), 50+rng.Intn(2500)
		dense := profile.NewHistoryBuffer(capacity)
		ref := NewRefHistoryBuffer(capacity)
		if dense.Cap() != ref.Cap() {
			t.Fatalf("seed %d: cap %d != %d", seed, dense.Cap(), ref.Cap())
		}
		var ops []histOp
		var answers []histAnswer
		for op := 0; op < nops; op++ {
			o := histOp{src: isa.Addr(rng.Intn(addrs)), tgt: isa.Addr(rng.Intn(addrs)), kind: profile.EntryKind(rng.Intn(3))}
			dseq := dense.Insert(o.src, o.tgt, o.kind)
			rseq := ref.Insert(o.src, o.tgt, o.kind)
			if dseq != rseq {
				t.Fatalf("seed %d op %d: insert seq %d != %d", seed, op, dseq, rseq)
			}
			dold, dok := dense.Lookup(o.tgt)
			rold, rok := ref.Lookup(o.tgt)
			if dok != rok || (dok && dold != rold) {
				t.Fatalf("seed %d op %d: lookup (%d,%v) != (%d,%v)", seed, op, dold, dok, rold, rok)
			}
			if dok {
				de, re := dense.At(dold), ref.At(rold)
				if de.Src != re.Src || de.Tgt != re.Tgt || de.Kind != re.Kind {
					t.Fatalf("seed %d op %d: entry %+v != %+v", seed, op, de, re)
				}
				dafter, rafter := dense.After(dold), ref.After(rold)
				if len(dafter) != len(rafter) {
					t.Fatalf("seed %d op %d: cycle length %d != %d", seed, op, len(dafter), len(rafter))
				}
				for i := range dafter {
					if dafter[i].Src != rafter[i].Src || dafter[i].Tgt != rafter[i].Tgt || dafter[i].Kind != rafter[i].Kind {
						t.Fatalf("seed %d op %d: cycle entry %d: %+v != %+v", seed, op, i, dafter[i], rafter[i])
					}
				}
			}
			dense.SetHash(o.tgt, dseq)
			ref.SetHash(o.tgt, rseq)
			if dok && rng.Intn(4) == 0 {
				o.truncate, o.pos = true, dold+uint64(rng.Intn(int(dense.Last()-dold)+1))
				dense.TruncateAfter(o.pos)
				ref.TruncateAfter(o.pos)
			}
			if dense.Len() != ref.Len() {
				t.Fatalf("seed %d op %d: len %d != %d", seed, op, dense.Len(), ref.Len())
			}
			ops = append(ops, o)
			answers = append(answers, histAnswer{dold, dok})
		}
		span := dense.Span()
		if !span.Contains(capacity) {
			t.Fatalf("seed %d: span %+v misses the capacity %d", seed, span, capacity)
		}
		for c := max(span.Lo, 1); c <= min(span.Hi, capacity+32); c++ {
			if i := replayHistory(ops, answers, c); i >= 0 {
				t.Fatalf("seed %d (capacity %d, span %+v): capacity %d answers lookup %d differently", seed, capacity, span, c, i)
			}
		}
		if span.Lo > 0 && replayHistory(ops, answers, span.Lo-1) < 0 {
			t.Fatalf("seed %d (capacity %d, span %+v): capacity %d answers every lookup alike, so the span is not tight", seed, capacity, span, span.Lo-1)
		}
	}
}

// histOp is one step of an LEI-shaped history stream: insert a transfer,
// look its target up, point the hash at the new entry, and truncate after
// pos when truncate is set.
type histOp struct {
	src, tgt isa.Addr
	kind     profile.EntryKind
	truncate bool
	pos      uint64
}

// histAnswer is one Lookup result.
type histAnswer struct {
	seq uint64
	ok  bool
}

// replayHistory runs ops on a fresh reference buffer of the given capacity
// and returns the index of the first lookup that does not answer as in
// want, or -1. A stream truncates only after a hit, at or above it, so a
// replay whose lookups all agree truncates resident positions only.
func replayHistory(ops []histOp, want []histAnswer, capacity int) int {
	b := NewRefHistoryBuffer(capacity)
	for i, o := range ops {
		seq := b.Insert(o.src, o.tgt, o.kind)
		if old, ok := b.Lookup(o.tgt); (histAnswer{old, ok}) != want[i] {
			return i
		}
		b.SetHash(o.tgt, seq)
		if o.truncate {
			b.TruncateAfter(o.pos)
		}
	}
	return -1
}

// TestDiffPooledScratch runs every (SPEC workload, selector) pair twice —
// once on a fresh dynopt.Scratch (a nil Config.Scratch) and once on a shared
// Scratch that is reused across all pairs, as the experiment harness does —
// and requires identical reports. Every run executes on a Scratch, so this
// pins what reuse adds: state the simulator, collector, interpreter, code
// cache or analyzer carries from one run into the next. RefSimulator
// (TestDiffRegionWalk) is the independent oracle for the run itself.
func TestDiffPooledScratch(t *testing.T) {
	params := core.DefaultParams()
	selectors := []func() core.Selector{
		func() core.Selector { return core.NewNET(params) },
		func() core.Selector { return core.NewLEI(params) },
		func() core.Selector { return core.NewCombiner(core.BaseNET, params) },
		func() core.Selector { return core.NewCombiner(core.BaseLEI, params) },
		func() core.Selector { return core.NewAdaptive(params) },
	}
	scratch := &dynopt.Scratch{}
	for _, name := range workloads.SpecNames() {
		w, ok := workloads.Get(name)
		if !ok {
			t.Fatalf("workload %q missing", name)
		}
		p := w.Build(6)
		for _, newSel := range selectors {
			fresh, err := dynopt.Run(p, dynopt.Config{Selector: newSel()})
			if err != nil {
				t.Fatalf("%s fresh: %v", name, err)
			}
			pooled, err := dynopt.Run(p, dynopt.Config{Selector: newSel(), Scratch: scratch})
			if err != nil {
				t.Fatalf("%s pooled: %v", name, err)
			}
			if fresh.Report != pooled.Report {
				t.Errorf("%s under %s: pooled report diverges:\nfresh:  %+v\npooled: %+v",
					name, fresh.Report.Selector, fresh.Report, pooled.Report)
			}
		}
	}
}
