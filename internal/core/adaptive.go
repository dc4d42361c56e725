// Adaptive per-phase policy selection (extension beyond the paper;
// ROADMAP direction 2). The paper's grid shows no static policy — NET,
// LEI, or either trace-combination variant — wins across every workload:
// loop-nest phases favor NET's cheap backward-target counters, call- and
// dispatch-heavy phases favor LEI's cycle detection, and phases where
// selected regions leak executions through early exits favor the +comb
// variants. PhaseSelector closes that gap online: a windowed integer
// detector classifies the current phase from signals the pipeline already
// produces (branch-kind mix, backward-branch rate, cache-exit rate) and
// switches the active policy, with dwell hysteresis so it cannot thrash,
// and codecache.FlushPartition so a switch never leaves a region selected
// by the outgoing policy reachable.
package core

import (
	"repro/internal/isa"
	"repro/internal/profile"
	"repro/internal/vm"
)

// Policy identifies one of the static selection policies the adaptive
// meta-selector can activate.
type Policy uint8

const (
	// PolicyNET selects next-executing tails (paper §2.1).
	PolicyNET Policy = iota
	// PolicyLEI selects last-executed iterations (paper §3).
	PolicyLEI
	// PolicyNETComb is NET with trace combination (paper §4).
	PolicyNETComb
	// PolicyLEIComb is LEI with trace combination (paper §4).
	PolicyLEIComb
	// NumPolicies is the number of selectable policies.
	NumPolicies
)

// String names the policy after the selector it activates.
func (p Policy) String() string {
	switch p {
	case PolicyNET:
		return "net"
	case PolicyLEI:
		return "lei"
	case PolicyNETComb:
		return "net+comb"
	case PolicyLEIComb:
		return "lei+comb"
	}
	return "invalid"
}

// Phase classification thresholds, in 1/256 shares of a detector window's
// interpreted transfers. A window is classified call-heavy when call/return
// taken branches exceed callShare256, dispatch-heavy when indirect taken
// branches exceed indShare256, and loop-dominated otherwise; independently,
// a cache-exit tally above exitShare256 (relative to the window's transfer
// count) marks the phase region-leaky, which escalates the chosen base
// policy to its trace-combination variant (the paper's cure for executions
// escaping through early exits, §4). Above steadyExit256 the window is
// not leaky but *hot* — almost all execution is inside the cache and the
// interpreter only sees the exits — and reclassifying (hence flushing a
// working partition) on such a window would be pure loss, so the detector
// keeps the active policy.
//
// The values are frozen by internal/difftest's RefPhaseDetector; changing
// one here without updating the reference is a differential-test failure,
// not a tuning knob.
const (
	indShare256   = 24  // ~9.4% indirect taken branches
	callShare256  = 48  // ~18.8% call/return taken branches
	exitShare256  = 40  // ~15.6% cache exits per transfer
	steadyExit256 = 768 // 3 exits per transfer: cache is hot, stay put
)

// PhaseDetector classifies program phases from a sliding window of
// selector observations and applies dwell hysteresis to policy changes.
// It is pure integer arithmetic over counts the selector callbacks already
// see, so detection adds no allocation and no floating point to the hot
// path.
//
// A window is measured in interpreted transfers, not raw observations: the
// branch-kind mix only exists while the interpreter is running, so windows
// fill quickly exactly when the cache is cold or mismatched (program start,
// phase change) and trickle when the cache is serving well. Cache exits are
// tallied alongside and read as a rate against the window's transfers.
type PhaseDetector struct {
	window int
	dwell  int

	// Current-window counters. n counts interpreted transfers; taken, back,
	// call, and ind classify them; exit tallies cache exits seen while the
	// window accumulated.
	n     int
	taken int // taken branches
	back  int // backward taken branches
	call  int // taken calls and returns
	ind   int // taken indirect jumps and calls
	exit  int // cache exits

	active  Policy
	desired Policy // candidate policy from recent windows
	streak  int    // consecutive windows that agreed on desired
	cool    int    // windows left before classification resumes

	// Capacity-pressure sampling: capNow is the cache's cumulative
	// capacity-flush count as of the latest observation, capAtWindow its
	// value when the previous window closed. A difference means the active
	// policy's working set overflowed the bounded cache during this window.
	capNow      int
	capAtWindow int

	windows  uint64
	switches uint64
	total    uint64 // observations ever seen (transfers and exits)
}

// reset re-arms the detector for a fresh run.
func (d *PhaseDetector) reset(window, dwell int) {
	d.window = window
	d.dwell = dwell
	d.n, d.taken, d.back, d.call, d.ind, d.exit = 0, 0, 0, 0, 0, 0
	d.active = PolicyNET
	d.desired = PolicyNET
	d.streak = 0
	d.cool = 0
	d.capNow = 0
	d.capAtWindow = 0
	d.windows = 0
	d.switches = 0
	d.total = 0
}

// notePressure records the cache's cumulative capacity-flush count so the
// next classification can tell whether the active policy's working set
// fits the bounded cache.
//
//lint:hotpath per-interpreted-transfer pressure sampling
func (d *PhaseDetector) notePressure(capacityFlushes int) {
	d.capNow = capacityFlushes
}

// observe records one interpreted transfer and reports whether the window
// boundary it may have completed switched the active policy.
//
//lint:hotpath per-interpreted-transfer phase accounting
func (d *PhaseDetector) observe(ev Event) bool {
	d.n++
	d.total++
	if ev.Taken {
		d.taken++
		if ev.Tgt <= ev.Src {
			d.back++
		}
		switch ev.Kind {
		case vm.KindCall, vm.KindReturn:
			d.call++
		case vm.KindIndCall, vm.KindIndJump:
			d.ind++
		}
	}
	if d.n >= d.window {
		return d.endWindow()
	}
	return false
}

// observeExit records one cache exit. Exits never complete a window — only
// interpreted transfers do — so a policy switch can only happen inside
// Transfer, and a fully cache-resident stretch (exits but no transfers)
// can never trigger one.
//
//lint:hotpath per-cache-exit phase accounting
func (d *PhaseDetector) observeExit() {
	d.total++
	d.exit++
}

// endWindow classifies the completed window, advances the hysteresis
// state, and reports whether the active policy changed. A change requires
// the same non-active policy to win dwell consecutive windows, so switches
// are at least window*dwell interpreted transfers apart — and after a
// switch the detector sits out dwell cooldown windows before classifying
// again, because those windows measure the freshly flushed cache warming
// up, not the program: a cold cache shows near-zero exits, which would
// immediately de-escalate a +comb policy and oscillate.
func (d *PhaseDetector) endWindow() bool {
	want := d.classify()
	d.windows++
	d.n, d.taken, d.back, d.call, d.ind, d.exit = 0, 0, 0, 0, 0, 0
	d.capAtWindow = d.capNow
	if d.cool > 0 {
		d.cool--
		d.desired = d.active
		d.streak = 0
		return false
	}
	if want == d.active {
		d.desired = d.active
		d.streak = 0
		return false
	}
	if want == d.desired {
		d.streak++
	} else {
		d.desired = want
		d.streak = 1
	}
	if d.streak < d.dwell {
		return false
	}
	d.active = want
	d.streak = 0
	d.cool = d.dwell
	d.switches++
	return true
}

// classify maps the completed window's counter mix to the policy that
// historically wins that mix in the experiments grid: LEI for call- and
// dispatch-heavy phases (interprocedural and indirect cycles NET's
// backward-branch heuristic misses), NET for loop-dominated phases, and
// the +comb escalation when executions keep leaking out of cached regions
// or the active policy's working set keeps overflowing the bounded cache
// (capacity flushes make a lean policy re-select the same overlapping
// traces from scratch — churn that combination absorbs by concentrating
// coverage into fewer, longer-lived regions). Two gates keep it from
// reclassifying on windows that carry no phase signal: a window whose
// exits dwarf its transfers means the cache is serving the current phase
// (flushing it would be pure loss), and a window with no backward, call,
// or indirect taken branches is straight-line glue with nothing for any
// region policy to grab — both keep the active policy.
func (d *PhaseDetector) classify() Policy {
	n := d.n
	if d.exit*256 >= n*steadyExit256 {
		return d.active
	}
	if d.back+d.call+d.ind == 0 {
		return d.active
	}
	base := PolicyNET
	if d.ind*256 >= n*indShare256 || d.call*256 >= n*callShare256 {
		base = PolicyLEI
	}
	leaky := d.exit*256 >= n*exitShare256
	pressured := d.capNow != d.capAtWindow
	if leaky || pressured {
		if base == PolicyNET {
			return PolicyNETComb
		}
		return PolicyLEIComb
	}
	return base
}

// Active returns the policy the detector currently prescribes.
func (d *PhaseDetector) Active() Policy { return d.active }

// Switches returns how many times the active policy has changed.
func (d *PhaseDetector) Switches() uint64 { return d.switches }

// Windows returns how many observation windows have completed.
func (d *PhaseDetector) Windows() uint64 { return d.windows }

// Observations returns the total number of observations ever recorded.
func (d *PhaseDetector) Observations() uint64 { return d.total }

// PhaseSelector is the adaptive meta-selector: it owns one instance of
// every static policy, forwards selector callbacks to the active one, and
// lets a PhaseDetector switch the active policy at window boundaries. On a
// switch the outgoing policy's profiling statistics are absorbed into
// running accumulators, the policy is Reset (its counters and history must
// not leak into its next activation), and the code cache retires the
// outgoing partition via FlushPartition — so no region selected under the
// old policy stays reachable and cross-policy state never mixes.
//
// The simulator only invokes selector callbacks while interpreting (no
// cached region is active), and re-probes the cache after every Transfer,
// so flushing from inside a callback is safe: no stale region pointer is
// held anywhere when the partition retires.
type PhaseSelector struct {
	params Params
	det    PhaseDetector
	// subs holds the concrete policy selectors, indexed by Policy. The
	// array never changes after construction; switches only move active.
	//lint:keep fixed policy instances; Reset re-arms each element in place
	subs   [NumPolicies]Selector
	active Policy

	// Statistics absorbed from policies retired by a switch: totals sum,
	// high-water marks take the maximum, matching how the per-policy stats
	// themselves aggregate over a run.
	accCounterAllocs  uint64
	accObservedTraces uint64
	accCountersHigh   int
	accObservedHigh   int
	// retiredSpan intersects the history spans of the policy runs retired
	// by a switch, read before their Reset clears them.
	retiredSpan profile.Span
}

// NewAdaptive returns an adaptive meta-selector over all four static
// policies, starting on NET (the paper's baseline).
func NewAdaptive(params Params) *PhaseSelector {
	a := &PhaseSelector{}
	a.params = params.withDefaults()
	a.subs[PolicyNET] = NewNET(a.params)
	a.subs[PolicyLEI] = NewLEI(a.params)
	a.subs[PolicyNETComb] = NewCombiner(BaseNET, a.params)
	a.subs[PolicyLEIComb] = NewCombiner(BaseLEI, a.params)
	a.det.reset(a.params.PhaseWindow, a.params.PhaseDwell)
	a.active = PolicyNET
	a.retiredSpan = profile.FullSpan
	return a
}

// Name implements Selector.
func (a *PhaseSelector) Name() string { return "adaptive" }

// ActivePolicy returns the currently active policy.
func (a *PhaseSelector) ActivePolicy() Policy { return a.active }

// Detector exposes the phase detector for tests and diagnostics.
func (a *PhaseSelector) Detector() *PhaseDetector { return &a.det }

// Transfer implements Selector: the active policy sees the event first, so
// a window boundary switches policies between events, never within one.
//
//lint:hotpath per-interpreted-transfer dispatch
func (a *PhaseSelector) Transfer(env Env, ev Event) {
	a.subs[a.active].Transfer(env, ev)
	a.det.notePressure(env.Cache().Flushes())
	if a.det.observe(ev) {
		a.switchTo(env, a.det.active)
	}
}

// CacheExit implements Selector. Exits feed the detector's leak rate but
// never complete a window, so no switch can happen here.
//
//lint:hotpath per-cache-exit dispatch
func (a *PhaseSelector) CacheExit(env Env, src, tgt isa.Addr) {
	a.subs[a.active].CacheExit(env, src, tgt)
	a.det.observeExit()
}

// switchTo retires the active policy and installs next: absorb the
// outgoing policy's statistics, Reset it so its next activation starts
// clean, and retire its cache partition so none of its regions stays
// reachable. Cold path: it runs at most once per window*dwell
// observations.
func (a *PhaseSelector) switchTo(env Env, next Policy) {
	out := a.subs[a.active]
	st := out.Stats()
	a.accCounterAllocs += st.CounterAllocs
	a.accObservedTraces += st.ObservedTraces
	if st.CountersHighWater > a.accCountersHigh {
		a.accCountersHigh = st.CountersHighWater
	}
	if st.ObservedBytesHighWater > a.accObservedHigh {
		a.accObservedHigh = st.ObservedBytesHighWater
	}
	if s, ok := out.(HistorySpanner); ok {
		a.retiredSpan = a.retiredSpan.Intersect(s.HistorySpan())
	}
	out.(Resettable).Reset(a.params)
	env.Cache().FlushPartition()
	a.active = next
}

// Stats implements Selector: the active policy's live statistics merged
// with everything absorbed from retired partitions. HistoryCap reports the
// configured LEI buffer capacity — the meta-selector always owns one LEI
// history buffer of that size, whether or not LEI is currently active.
func (a *PhaseSelector) Stats() ProfileStats {
	st := a.subs[a.active].Stats()
	st.CounterAllocs += a.accCounterAllocs
	st.ObservedTraces += a.accObservedTraces
	if a.accCountersHigh > st.CountersHighWater {
		st.CountersHighWater = a.accCountersHigh
	}
	if a.accObservedHigh > st.ObservedBytesHighWater {
		st.ObservedBytesHighWater = a.accObservedHigh
	}
	st.HistoryCap = a.params.HistoryCap
	return st
}

// HistorySpan implements HistorySpanner: the spans of every policy's
// current run intersected with those of the runs a switch retired, since
// each of them ran under the one configured capacity.
func (a *PhaseSelector) HistorySpan() profile.Span {
	span := a.retiredSpan
	for _, s := range a.subs {
		if h, ok := s.(HistorySpanner); ok {
			span = span.Intersect(h.HistorySpan())
		}
	}
	return span
}

// Reset implements Resettable: every policy instance is re-armed in place
// (keeping its allocated tables for reuse), the detector restarts, and the
// absorbed statistics clear.
func (a *PhaseSelector) Reset(params Params) {
	a.params = params.withDefaults()
	for _, s := range a.subs {
		s.(Resettable).Reset(a.params)
	}
	a.det.reset(a.params.PhaseWindow, a.params.PhaseDwell)
	a.active = PolicyNET
	a.accCounterAllocs = 0
	a.accObservedTraces = 0
	a.accCountersHigh = 0
	a.accObservedHigh = 0
	a.retiredSpan = profile.FullSpan
}

// Preallocate implements Preallocator by pre-sizing every policy's dense
// tables.
func (a *PhaseSelector) Preallocate(addrSpace int) {
	for _, s := range a.subs {
		if p, ok := s.(Preallocator); ok {
			p.Preallocate(addrSpace)
		}
	}
}
