// Package metrics computes every evaluation measure used in the paper:
// hit rate, code expansion, region transitions, spanned and executed cycle
// ratios (§3.2.1), the X% cover set (§2.3), exit domination and
// exit-dominated duplication (§4.1), exit-stub counts, estimated cache
// size, and profiling memory overheads.
package metrics

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/codecache"
	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/vm"
)

// Counters are a run's execution facts: every one of them only ever grows
// by addition, so a stretch of execution that repeats adds the same amount
// each time (Repeat).
type Counters struct {
	// TotalInstrs is every instruction executed by the program.
	TotalInstrs uint64
	// CacheInstrs is the subset executed from the code cache.
	CacheInstrs uint64
	// Transitions counts jumps between regions in the code cache (§2.3).
	Transitions uint64
	// PageTransitions counts region transitions whose source and target
	// regions lie on different virtual-memory pages of the cache layout —
	// the separation effect of §1 quantified.
	PageTransitions uint64
	// TransitionBytes accumulates the cache-layout distance (in bytes)
	// covered by region transitions.
	TransitionBytes uint64
	// CacheEnters counts transfers from the interpreter into the cache.
	CacheEnters uint64
	// CacheExits counts transfers from the cache back to the interpreter.
	CacheExits uint64
	// InterpBranches counts interpreted taken branches.
	InterpBranches uint64
}

// Repeat adds n more times what the counters gained since they read
// before: the growth of one more stretch of execution applied n times.
func (c *Counters) Repeat(before Counters, n uint64) {
	c.TotalInstrs += (c.TotalInstrs - before.TotalInstrs) * n
	c.CacheInstrs += (c.CacheInstrs - before.CacheInstrs) * n
	c.Transitions += (c.Transitions - before.Transitions) * n
	c.PageTransitions += (c.PageTransitions - before.PageTransitions) * n
	c.TransitionBytes += (c.TransitionBytes - before.TransitionBytes) * n
	c.CacheEnters += (c.CacheEnters - before.CacheEnters) * n
	c.CacheExits += (c.CacheExits - before.CacheExits) * n
	c.InterpBranches += (c.InterpBranches - before.InterpBranches) * n
}

// Collector accumulates raw execution facts during a simulation run.
type Collector struct {
	Counters
	// SkippedEvents counts the block events whose effect the simulator
	// applied in bulk instead of walking them one by one (a replay's
	// repeated in-cache periods). It describes how the run was simulated,
	// not the run, so no Report field carries it.
	SkippedEvents uint64

	// own is the collector's edge table, counted by CountEdges. borrowed,
	// when set, replaces it for the run: a shared, read-only table of the
	// same stream's edges that the collector never writes (Borrow).
	own      Edges
	borrowed *Edges
}

// NewCollector returns an empty collector.
func NewCollector() *Collector {
	return &Collector{}
}

// EnsureCap grows the collector's own edge table to cover source leaders
// below n, so a run over a program of known address-space size counts
// edges without ever growing the table.
func (c *Collector) EnsureCap(n int) { c.own.EnsureCap(n) }

// Reset clears the collector for reuse and drops any borrowed table, keeping
// its own table's backing storage (including each source's successor-cell
// array) so a pooled collector reaches steady state with no allocation.
func (c *Collector) Reset() {
	c.own.reset()
	*c = Collector{own: c.own}
}

// Borrow makes e the collector's edge table for the rest of the run: e must
// already hold the edges of the stream being collected (it is typically a
// recorded corpus's table, shared across concurrent replays), so CountEdges
// becomes a no-op and nothing writes into e.
func (c *Collector) Borrow(e *Edges) { c.borrowed = e }

// Edges returns the run's edge table: the borrowed one when set, otherwise
// the collector's own.
func (c *Collector) Edges() *Edges {
	if c.borrowed != nil {
		return c.borrowed
	}
	return &c.own
}

// CountEdges folds a batch of block events, the first leaving the block led
// by pos, into the collector's own edge table. A collector that borrows a
// table counts nothing.
//
//lint:hotpath per-batch edge counting
func (c *Collector) CountEdges(pos isa.Addr, events []vm.BlockEvent) {
	if c.borrowed == nil {
		c.own.Fold(pos, events)
	}
}

// Block records the completed execution of a block of n instructions.
//
//lint:hotpath per-block collection
func (c *Collector) Block(n int, inCache bool) {
	c.TotalInstrs += uint64(n)
	if inCache {
		c.CacheInstrs += uint64(n)
	}
}

// Transition records one region transition between cache-layout addresses.
//
//lint:hotpath per-region-transition collection
func (c *Collector) Transition(fromAddr, toAddr int) {
	c.Transitions++
	if fromAddr/codecache.PageBytes != toAddr/codecache.PageBytes {
		c.PageTransitions++
	}
	d := toAddr - fromAddr
	if d < 0 {
		d = -d
	}
	c.TransitionBytes += uint64(d)
}

// HitRate returns the fraction of executed instructions that ran from the
// code cache.
func (c *Collector) HitRate() float64 {
	if c.TotalInstrs == 0 {
		return 0
	}
	return float64(c.CacheInstrs) / float64(c.TotalInstrs)
}

// Report is the full set of per-run measurements the paper's figures draw
// from.
type Report struct {
	Workload string
	Selector string

	// Execution.
	TotalInstrs uint64
	CacheInstrs uint64
	HitRate     float64
	Transitions uint64
	// PageTransitions counts transitions crossing a page boundary of the
	// cache layout (zero when the whole cache fits one page).
	PageTransitions uint64
	// TransitionReach is the total cache-layout distance covered by all
	// region transitions, in bytes — a locality measure combining how
	// often control leaves a region with how far it lands.
	TransitionReach uint64
	// AvgTransitionBytes is the mean cache-layout distance of a region
	// transition.
	AvgTransitionBytes float64
	CacheEnters        uint64
	CacheExits         uint64
	InterpBranches     uint64

	// Selection.
	Regions         int
	CodeExpansion   int // instructions copied into the cache
	Stubs           int
	EstimatedBytes  int
	AvgRegionInstrs float64
	SpannedCycles   int
	SpannedRatio    float64 // cyclic regions / regions
	Traversals      uint64
	CycleTraversals uint64
	ExecutedRatio   float64 // cycle traversals / traversals

	// Cover set.
	CoverSet90   int
	CoverSet90OK bool // whether 90% of execution is reachable from regions

	// Exit domination (§4.1).
	ExitDominated         int
	ExitDominatedRatio    float64 // exit-dominated regions / regions
	ExitDomDupInstrs      int
	ExitDomDupInstrsRatio float64 // duplicated instructions / instructions selected

	// Links counts exit directions that target another region's entry —
	// the inter-region links Dynamo patches into exit stubs. The paper's
	// footnote 9 ignores link memory but argues its algorithms reduce the
	// number of links; this measures that.
	Links int

	// Profiling memory.
	CountersHighWater      int
	CounterAllocs          uint64
	ObservedBytesHighWater int
	ObservedTraces         uint64
	// ObservedPctOfCache is ObservedBytesHighWater as a fraction of the
	// estimated cache size (Figure 18).
	ObservedPctOfCache float64
}

// Analyzer computes Reports while pooling the per-region scratch tables
// (predecessor lists, cover-set ordering, domination work lists) across
// runs. It is the one implementation of every measure a Report carries:
// each simulation run analyzes its report through the Analyzer of its
// dynopt.Scratch, so steady-state Analyze performs no allocation.
type Analyzer struct {
	// preds is a dense table of distinct executed predecessor leaders per
	// target leader; predsHot lists the touched targets so clearing between
	// runs is proportional to the program actually executed.
	preds    [][]isa.Addr
	predsHot []isa.Addr
	byExec   []*codecache.Region
	outside  []isa.Addr
}

// buildPreds fills the dense predecessor table from the run's edge counts,
// only reading the table (it may be a corpus's shared one). Iterating
// sources in ascending address order yields each target's predecessor list
// already sorted, matching PredsOf.
//
//lint:hotpath pooled analysis (TestPooledAnalyzeAllocFree)
func (a *Analyzer) buildPreds(edges *Edges) {
	for _, to := range a.predsHot {
		a.preds[to] = a.preds[to][:0]
	}
	a.predsHot = a.predsHot[:0]
	for from, cells := range edges.cells {
		for _, cell := range cells {
			to := int(cell.to)
			if to >= len(a.preds) {
				grown := make([][]isa.Addr, to+1)
				copy(grown, a.preds)
				a.preds = grown
			}
			if len(a.preds[to]) == 0 {
				a.predsHot = append(a.predsHot, cell.to)
			}
			a.preds[to] = append(a.preds[to], isa.Addr(from))
		}
	}
}

// coverSet returns the size of the smallest set of regions whose executed
// instructions comprise at least frac of total program execution — the
// paper's trace-quality metric (§2.3). ok is false when even all regions
// together fall short (the remainder ran interpreted). Ties in executed
// instructions go to the earlier-selected region; the ordering lives in the
// analyzer's pooled buffer.
//
//lint:hotpath pooled analysis (TestPooledAnalyzeAllocFree)
func (a *Analyzer) coverSet(regions []*codecache.Region, totalInstrs uint64, frac float64) (n int, ok bool) {
	a.byExec = append(a.byExec[:0], regions...)
	slices.SortFunc(a.byExec, func(x, y *codecache.Region) int {
		if x.ExecInstrs != y.ExecInstrs {
			if x.ExecInstrs > y.ExecInstrs {
				return -1
			}
			return 1
		}
		if x.SelectedSeq < y.SelectedSeq {
			return -1
		}
		if x.SelectedSeq > y.SelectedSeq {
			return 1
		}
		return 0
	})
	need := uint64(frac * float64(totalInstrs))
	if need == 0 {
		return 0, true
	}
	var sum uint64
	for i, reg := range a.byExec {
		sum += reg.ExecInstrs
		if sum >= need {
			return i + 1, true
		}
	}
	return len(a.byExec), false
}

// exitDomination counts the exit-dominated regions and the instructions
// they duplicate from their dominators (§4.1). Region R exit-dominates
// region S when (1) S begins at an exit from R, (2) the exit block is the
// only executed predecessor of S's entrance not contained in S, and (3) R
// was selected before S. It reads the predecessor table buildPreds filled.
//
//lint:hotpath pooled analysis (TestPooledAnalyzeAllocFree)
func (a *Analyzer) exitDomination(regions []*codecache.Region) (dominated, dupInstrs int) {
	for _, s := range regions {
		a.outside = a.outside[:0]
		if int(s.Entry) < len(a.preds) {
			for _, p := range a.preds[s.Entry] {
				if !s.Contains(p) {
					a.outside = append(a.outside, p)
				}
			}
		}
		if len(a.outside) != 1 {
			continue
		}
		dominator := findDominator(regions, s, a.outside[0])
		if dominator == nil {
			continue
		}
		dominated++
		dupInstrs += overlapInstrs(dominator, s)
	}
	return dominated, dupInstrs
}

// Analyze computes a Report from a finished run, reusing the analyzer's
// scratch tables.
func (a *Analyzer) Analyze(cache *codecache.Cache, col *Collector, selStats core.ProfileStats) Report {
	r := Report{
		TotalInstrs:     col.TotalInstrs,
		CacheInstrs:     col.CacheInstrs,
		HitRate:         col.HitRate(),
		Transitions:     col.Transitions,
		PageTransitions: col.PageTransitions,
		TransitionReach: col.TransitionBytes,
		CacheEnters:     col.CacheEnters,
		CacheExits:      col.CacheExits,
		InterpBranches:  col.InterpBranches,

		CodeExpansion:  cache.TotalInstrs(),
		Stubs:          cache.TotalStubs(),
		EstimatedBytes: cache.EstimatedBytes(),

		CountersHighWater:      selStats.CountersHighWater,
		CounterAllocs:          selStats.CounterAllocs,
		ObservedBytesHighWater: selStats.ObservedBytesHighWater,
		ObservedTraces:         selStats.ObservedTraces,
	}
	r.Links = cache.CountLinks()
	regions := cache.AllRegions()
	r.Regions = len(regions)
	for _, reg := range regions {
		if reg.Cyclic {
			r.SpannedCycles++
		}
		r.Traversals += reg.Traversals
		r.CycleTraversals += reg.CycleTraversals
	}
	if r.Regions > 0 {
		r.SpannedRatio = float64(r.SpannedCycles) / float64(r.Regions)
		r.AvgRegionInstrs = float64(r.CodeExpansion) / float64(r.Regions)
	}
	if r.Traversals > 0 {
		r.ExecutedRatio = float64(r.CycleTraversals) / float64(r.Traversals)
	}
	r.CoverSet90, r.CoverSet90OK = a.coverSet(regions, col.TotalInstrs, 0.90)
	a.buildPreds(col.Edges())
	r.ExitDominated, r.ExitDomDupInstrs = a.exitDomination(regions)
	if r.Regions > 0 {
		r.ExitDominatedRatio = float64(r.ExitDominated) / float64(r.Regions)
	}
	if r.CodeExpansion > 0 {
		r.ExitDomDupInstrsRatio = float64(r.ExitDomDupInstrs) / float64(r.CodeExpansion)
	}
	if r.EstimatedBytes > 0 {
		r.ObservedPctOfCache = float64(r.ObservedBytesHighWater) / float64(r.EstimatedBytes)
	}
	if col.Transitions > 0 {
		r.AvgTransitionBytes = float64(col.TransitionBytes) / float64(col.Transitions)
	}
	return r
}

// findDominator returns the earliest-selected region R, selected before S,
// that contains the exit block p and for which the edge p -> S.Entry leaves
// R (is not one of R's internal edges).
func findDominator(regions []*codecache.Region, s *codecache.Region, p isa.Addr) *codecache.Region {
	var best *codecache.Region
	for _, r := range regions {
		if r == s || r.SelectedSeq >= s.SelectedSeq {
			continue
		}
		pi := r.BlockIndex(p)
		if pi < 0 {
			continue
		}
		if r.InternalEdge(pi, s.Entry) {
			continue
		}
		if best == nil || r.SelectedSeq < best.SelectedSeq {
			best = r
		}
	}
	return best
}

// overlapInstrs counts the instructions present in both regions (shared
// static blocks).
func overlapInstrs(a, b *codecache.Region) int {
	n := 0
	for _, blk := range b.Blocks {
		if a.Contains(blk.Start) {
			n += blk.Len
		}
	}
	return n
}

// String renders the report as a human-readable block.
func (r Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "workload=%s selector=%s\n", r.Workload, r.Selector)
	fmt.Fprintf(&b, "  instrs total=%d cache=%d hit=%.2f%%\n", r.TotalInstrs, r.CacheInstrs, 100*r.HitRate)
	fmt.Fprintf(&b, "  regions=%d expansion=%d instrs avg=%.1f stubs=%d bytes=%d\n",
		r.Regions, r.CodeExpansion, r.AvgRegionInstrs, r.Stubs, r.EstimatedBytes)
	fmt.Fprintf(&b, "  transitions=%d (page-crossing=%d, avg-dist=%.0fB) enters=%d exits=%d\n",
		r.Transitions, r.PageTransitions, r.AvgTransitionBytes, r.CacheEnters, r.CacheExits)
	fmt.Fprintf(&b, "  spanned=%.1f%% executed-cycles=%.1f%%\n", 100*r.SpannedRatio, 100*r.ExecutedRatio)
	fmt.Fprintf(&b, "  cover90=%d (ok=%v)\n", r.CoverSet90, r.CoverSet90OK)
	fmt.Fprintf(&b, "  exit-dominated=%d (%.1f%%) dup-instrs=%d (%.1f%%)\n",
		r.ExitDominated, 100*r.ExitDominatedRatio, r.ExitDomDupInstrs, 100*r.ExitDomDupInstrsRatio)
	fmt.Fprintf(&b, "  counters-high=%d observed-bytes-high=%d (%.1f%% of cache)\n",
		r.CountersHighWater, r.ObservedBytesHighWater, 100*r.ObservedPctOfCache)
	return b.String()
}
