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
// streams — insert, the LEI lookup/set-hash pair, and truncation — and
// requires identical positions, hit/miss results, and cycle contents.
func TestDiffHistoryBuffer(t *testing.T) {
	for seed := int64(0); seed < 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		capacity := 1 + rng.Intn(17)
		dense := profile.NewHistoryBuffer(capacity)
		ref := NewRefHistoryBuffer(capacity)
		if dense.Cap() != ref.Cap() {
			t.Fatalf("seed %d: cap %d != %d", seed, dense.Cap(), ref.Cap())
		}
		for op := 0; op < 2500; op++ {
			src := isa.Addr(rng.Intn(48))
			tgt := isa.Addr(rng.Intn(48))
			kind := profile.EntryKind(rng.Intn(3))
			switch rng.Intn(10) {
			case 0: // truncate after a random resident position
				if dense.Len() == 0 {
					continue
				}
				pos := dense.Last() - uint64(rng.Intn(dense.Len()))
				dense.TruncateAfter(pos)
				ref.TruncateAfter(pos)
			default: // the LEI insert/lookup/set-hash sequence
				dseq := dense.Insert(src, tgt, kind)
				rseq := ref.Insert(src, tgt, kind)
				if dseq != rseq {
					t.Fatalf("seed %d op %d: insert seq %d != %d", seed, op, dseq, rseq)
				}
				dold, dok := dense.Lookup(tgt)
				rold, rok := ref.Lookup(tgt)
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
				dense.SetHash(tgt, dseq)
				ref.SetHash(tgt, rseq)
			}
			if dense.Len() != ref.Len() {
				t.Fatalf("seed %d op %d: len %d != %d", seed, op, dense.Len(), ref.Len())
			}
		}
	}
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
