package metrics

import (
	"repro/internal/codecache"
	"repro/internal/program"
)

// LoopCoverage relates the dynamically selected regions to the program's
// static loop structure: of the natural loops that actually ran hot, how
// many ended up spanned by a cyclic region? This connects the paper's
// dynamic spanned-cycle metric (§3.2.1) back to the loops a compiler would
// see.
type LoopCoverage struct {
	// StaticLoops is the total number of natural loops in the program.
	StaticLoops int
	// HotLoops is the number whose back edge executed at least the
	// threshold number of times.
	HotLoops int
	// Spanned is the number of hot loops covered by a cyclic region that
	// contains both the loop header and the back-edge tail.
	Spanned int
	// HeaderCached is the number of hot loops whose header block was
	// copied into at least one region (spanned or not).
	HeaderCached int
}

// Ratio returns Spanned/HotLoops (0 when no loop ran hot).
func (l LoopCoverage) Ratio() float64 {
	if l.HotLoops == 0 {
		return 0
	}
	return float64(l.Spanned) / float64(l.HotLoops)
}

// AnalyzeLoopCoverage computes loop coverage for a finished run. minExec
// is the hotness threshold on the loop's back edge (the paper's selection
// thresholds are 35–50, so 100 means "comfortably past selection").
func AnalyzeLoopCoverage(p *program.Program, cache *codecache.Cache, col *Collector, minExec uint64) LoopCoverage {
	loops := p.NaturalLoops()
	cov := LoopCoverage{StaticLoops: len(loops)}
	regions := cache.AllRegions()
	for _, l := range loops {
		if col.Edges().EdgeCount(l.Tail, l.Header) < minExec {
			continue
		}
		cov.HotLoops++
		spanned := false
		cached := false
		for _, r := range regions {
			if r.Contains(l.Header) {
				cached = true
				if r.Cyclic && r.Contains(l.Tail) {
					spanned = true
				}
			}
		}
		if spanned {
			cov.Spanned++
		}
		if cached {
			cov.HeaderCached++
		}
	}
	return cov
}
