// Package core implements the paper's region-selection algorithms:
//
//   - NET (Next-Executing Tail), the Dynamo/DynamoRIO baseline (paper §2.1);
//   - LEI (Last-Executed Iteration), which selects cyclic traces from a
//     history buffer of recently interpreted taken branches (paper §3,
//     Figures 5 and 6);
//   - trace combination, which records several observed traces, merges
//     them into a CFG, and promotes a multi-path region (paper §4,
//     Figures 13, 14, 15). Combination layers on either NET or LEI.
//
// Selectors plug into the dynamic-optimization-system simulator in package
// dynopt through the Selector interface defined here.
package core

import (
	"repro/internal/codecache"
	"repro/internal/isa"
	"repro/internal/profile"
	"repro/internal/program"
	"repro/internal/vm"
)

// Event describes one control transfer observed while the simulated system
// is interpreting. The simulator reports every block boundary: taken
// branches and fall-throughs alike, so that trace recorders can follow the
// executed path. Transfers executed inside the code cache are never
// reported (profiling stops while execution is native, §3.1).
type Event struct {
	// Src is the address of the instruction the transfer leaves from: a
	// taken branch, a not-taken conditional, or the last instruction of a
	// block that falls into a following block leader.
	Src isa.Addr
	// Tgt is the address control transfers to (always a block leader).
	Tgt isa.Addr
	// Kind classifies taken branches; meaningless when Taken is false.
	Kind vm.BranchKind
	// Taken distinguishes taken branches from fall-through boundaries.
	Taken bool
	// ToCache reports that Tgt is the entry of a cached region: control is
	// about to leave the interpreter. Selectors must not profile such
	// transfers (Figure 5, lines 1–4), but trace recorders use them as a
	// stop condition and LEI records them for path reconstruction.
	ToCache bool
}

// Backward reports whether the event is a taken branch to the same or a
// lower address — the paper's definition of a backward branch, which
// applies uniformly to jumps, conditional branches, calls, and returns.
func (e Event) Backward() bool { return e.Taken && e.Tgt <= e.Src }

// Env is the view of the dynamic optimization system a Selector acts
// through.
type Env interface {
	// Program returns the running program.
	Program() *program.Program
	// Cache returns the code cache.
	Cache() *codecache.Cache
	// Insert promotes a region into the code cache.
	Insert(spec codecache.Spec) (*codecache.Region, error)
	// Fail records a selector-internal error; the simulation run reports it.
	Fail(err error)
}

// ProfileStats reports the memory-overhead measures the paper tracks.
type ProfileStats struct {
	// CountersHighWater is the maximum number of execution counters live at
	// once (Figure 10).
	CountersHighWater int
	// CounterAllocs is the total number of counter allocations.
	CounterAllocs uint64
	// HistoryCap is the LEI history-buffer capacity (0 for NET).
	HistoryCap int
	// ObservedBytesHighWater is the maximum memory, in bytes, that the
	// observed traces held at any one point take in the compact encoding of
	// Figure 14 (Figure 18); zero without trace combination.
	ObservedBytesHighWater int
	// ObservedTraces is the total number of observed traces recorded by
	// trace combination.
	ObservedTraces uint64
}

// Selector is a region-selection algorithm.
type Selector interface {
	// Name identifies the algorithm ("net", "lei", "net+comb", ...).
	Name() string
	// Transfer is invoked for every control transfer observed while
	// interpreting, including the transfer that enters the cache
	// (ToCache true).
	Transfer(env Env, ev Event)
	// CacheExit is invoked when control leaves the code cache and
	// interpretation resumes at tgt (which is never a cached entry). src is
	// the original address of the last instruction of the region block the
	// exit left from.
	CacheExit(env Env, src, tgt isa.Addr)
	// Stats reports profiling memory overhead.
	Stats() ProfileStats
}

// Resettable is implemented by selectors that can be re-armed for a fresh
// run under (possibly different) parameters while keeping their allocated
// profiling state — counter tables, history buffers, recorder free-lists —
// for reuse. The sweep engine pools resettable selectors per shard, so a
// steady-state sweep job spends no allocations on selector construction.
// Selectors that are not Resettable are simply rebuilt per run.
type Resettable interface {
	Reset(params Params)
}

// HistorySpanner is implemented by the selectors that read
// Params.HistoryCap, which they read only as the capacity of their LEI
// history buffers. HistorySpan reports the capacities under which the last
// run, since a Reset, would have run exactly as it did: the intersection of
// its buffers' spans (profile.HistoryBuffer.Span), or profile.FullSpan when
// it ran none.
type HistorySpanner interface {
	HistorySpan() profile.Span
}

// Preallocator is implemented by selectors whose dense, address-indexed
// profiling tables can be sized up front. The simulator calls it once at run
// start with the program's address-space size (program length plus one, so
// the one-past-the-end sentinel address the VM's predecoder uses is always
// in range), eliminating steady-state table growth from the hot path.
type Preallocator interface {
	Preallocate(addrSpace int)
}

// Params holds every tunable of the selection algorithms, defaulting to the
// paper's published values.
type Params struct {
	// NETThreshold is NET's execution-count threshold (paper: 50).
	NETThreshold int
	// LEIThreshold is LEI's cycle-count threshold T_cyc (paper: 35).
	LEIThreshold int
	// HistoryCap is the LEI history-buffer capacity (paper: 500).
	HistoryCap int
	// TProf is the number of observed traces trace combination records
	// (paper: 15).
	TProf int
	// TMin is the number of observed traces a block must appear in to be
	// selected directly (paper: 5).
	TMin int
	// MaxTraceInstrs bounds trace length in instructions (paper footnote 7
	// notes NET imposes a maximum; Dynamo used a fixed fragment limit).
	MaxTraceInstrs int
	// MaxTraceBlocks bounds trace length in blocks.
	MaxTraceBlocks int
	// PhaseWindow is the number of interpreted transfers the adaptive
	// meta-selector aggregates before classifying the current program phase
	// (extension beyond the paper; see PhaseSelector). Cache exits are
	// tallied alongside but do not advance the window, so windows complete
	// quickly exactly when the cache is cold or mismatched.
	PhaseWindow int
	// PhaseDwell is the number of consecutive windows that must agree on a
	// policy before the adaptive meta-selector switches to it — the
	// hysteresis that prevents policy thrash. Switches are therefore at
	// least PhaseWindow*PhaseDwell interpreted transfers apart.
	PhaseDwell int

	// Ablation switches (extensions beyond the paper, for studying its
	// design choices; all false in the paper's configuration).

	// AblateLEIExitGrowth disables the "old follows exit from code cache"
	// condition of Figure 5 line 9: cycles qualify only when completed by
	// a backward branch, so traces can no longer grow from existing
	// traces' exits.
	AblateLEIExitGrowth bool
	// AblateRejoinPaths disables MarkRejoiningPaths (Figure 15) in trace
	// combination: only blocks appearing in at least T_min observed traces
	// are selected, so rejoining paths are excluded and exit-dominated
	// duplication returns.
	AblateRejoinPaths bool
	// AblateNETBackwardStop lets NET traces continue across backward taken
	// branches (stopping only at the trace head, at existing regions, at
	// revisited blocks, or at the size limit). The paper observes that
	// stopping at backward calls and returns "enables NET to limit code
	// expansion" (§2.2); this switch measures that claim.
	AblateNETBackwardStop bool
}

// DefaultParams returns the paper's published configuration.
func DefaultParams() Params {
	return Params{
		NETThreshold:   50,
		LEIThreshold:   35,
		HistoryCap:     500,
		TProf:          15,
		TMin:           5,
		MaxTraceInstrs: 1024,
		MaxTraceBlocks: 128,
		PhaseWindow:    256,
		PhaseDwell:     3,
	}
}

// withDefaults fills zero fields from DefaultParams.
func (p Params) withDefaults() Params {
	d := DefaultParams()
	if p.NETThreshold <= 0 {
		p.NETThreshold = d.NETThreshold
	}
	if p.LEIThreshold <= 0 {
		p.LEIThreshold = d.LEIThreshold
	}
	if p.HistoryCap <= 0 {
		p.HistoryCap = d.HistoryCap
	}
	if p.TProf <= 0 {
		p.TProf = d.TProf
	}
	if p.TMin <= 0 {
		p.TMin = d.TMin
	}
	if p.MaxTraceInstrs <= 0 {
		p.MaxTraceInstrs = d.MaxTraceInstrs
	}
	if p.MaxTraceBlocks <= 0 {
		p.MaxTraceBlocks = d.MaxTraceBlocks
	}
	if p.PhaseWindow <= 0 {
		p.PhaseWindow = d.PhaseWindow
	}
	if p.PhaseDwell <= 0 {
		p.PhaseDwell = d.PhaseDwell
	}
	return p
}
