package difftest

import (
	"testing"

	"repro/internal/asm"
	"repro/internal/core"
	"repro/internal/workloads"
)

// TestDiffCombinerResetChain is the Figure 18 identity guard for the pooled
// combination path: one production Combiner — arena-backed observed traces,
// recycled span lists, pooled RegionCFG — is re-armed via Reset across a
// chain of random programs and parameter points, and every leg must be
// observationally identical to a freshly constructed frozen RefCombiner:
// same report (including ObservedBytesHighWater and ObservedTraces, so the
// arena provably does not perturb the observed-memory measurement), same
// promoted regions, and the same §4.2.3 rejoin-iteration histogram.
func TestDiffCombinerResetChain(t *testing.T) {
	legs := 10
	for _, base := range []core.BaseAlgorithm{core.BaseNET, core.BaseLEI} {
		name := map[core.BaseAlgorithm]string{core.BaseNET: "net+comb", core.BaseLEI: "lei+comb"}[base]
		t.Run(name, func(t *testing.T) {
			pooled := core.NewCombiner(base, RandomParams(0))
			for leg := 0; leg < legs; leg++ {
				p := resetProgram(int64(leg * 7))
				params := RandomParams(int64(leg * 13))
				pooled.Reset(params)
				ref := NewRefCombiner(base, params)
				got := runOnce(t, p, pooled)
				want := runOnce(t, p, ref)
				if err := compareResults(got, want); err != nil {
					t.Fatalf("leg %d: pooled combiner diverged from frozen reference: %v", leg, err)
				}
				if pi, ri := pooled.RejoinIterations(), ref.RejoinIterations(); pi != ri {
					t.Fatalf("leg %d: rejoin-iteration histogram divergence: pooled=%v ref=%v", leg, pi, ri)
				}
			}
		})
	}
}

// TestDiffCombinerWorkloads pins pooled-vs-frozen combiner identity on the
// named workloads at a scale where both bases promote multipath regions,
// comparing the full report and rejoin histogram per workload.
func TestDiffCombinerWorkloads(t *testing.T) {
	params := core.DefaultParams()
	params.NETThreshold = 18
	params.LEIThreshold = 17
	params.HistoryCap = 120
	for _, name := range workloads.SpecNames() {
		p := workloads.MustGet(name).Build(12)
		for _, base := range []core.BaseAlgorithm{core.BaseNET, core.BaseLEI} {
			dense := core.NewCombiner(base, params)
			ref := NewRefCombiner(base, params)
			if err := CompareRun(p, dense, ref); err != nil {
				t.Errorf("%s under %s: %v", name, dense.Name(), err)
				continue
			}
			if di, ri := dense.RejoinIterations(), ref.RejoinIterations(); di != ri {
				t.Errorf("%s under %s: rejoin-iteration histogram divergence: dense=%v ref=%v", name, dense.Name(), di, ri)
			}
		}
	}
}

// TestDiffCombinerClosingTransfer pins the closing-transfer rule on
// observed traces that end without one — a trace closes only when its last
// outcome is a taken branch at its last instruction. In each program most
// iterations of the hot loop take the frequent path, and every fourth
// takes a rare one (through a) whose recordings stop at the block limit in
// a block u that only rare traces hold: after a taken jump and a
// fall-through, or at a not-taken conditional. Closing such a trace would
// add an edge from u into a frequent block, u would rejoin the region
// (Figure 15), and the promoted region would differ from the frozen
// reference's, whose decoder ends both traces open.
func TestDiffCombinerClosingTransfer(t *testing.T) {
	params := core.DefaultParams()
	params.NETThreshold = 10
	params.LEIThreshold = 10
	params.TProf = 6
	params.TMin = 3
	params.MaxTraceBlocks = 4
	for _, tc := range []struct{ name, src string }{
		{"taken jump, then fall-throughs to the block limit", `
  movi r1, 400
  movi r9, 3
head:
  addi r1, r1, -1
  and r2, r1, r9
  beq r2, r0, a
  jmp b2
a:
  jmp t
b2:
  addi r3, r3, 1
t:
  addi r4, r4, 1
u:
  addi r5, r5, 1
v:
  addi r6, r6, 1
  bgt r1, r0, head
  halt
  jmp u
  jmp v
`},
		{"not-taken conditional at the block limit", `
  movi r1, 400
  movi r9, 3
head:
  addi r1, r1, -1
  and r2, r1, r9
  beq r2, r0, a
  jmp v
a:
  jmp t
  jmp u
t:
  addi r4, r4, 1
u:
  addi r5, r5, 1
  blt r1, r0, out
v:
  addi r6, r6, 1
  bgt r1, r0, head
out:
  halt
`},
	} {
		p, err := asm.Parse(tc.src)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		for _, base := range []core.BaseAlgorithm{core.BaseNET, core.BaseLEI} {
			dense := core.NewCombiner(base, params)
			if err := CompareRun(p, dense, NewRefCombiner(base, params)); err != nil {
				t.Errorf("%s under %s: %v", tc.name, dense.Name(), err)
			}
		}
	}
}
