package experiments

import (
	"repro/internal/dynopt"
	"repro/internal/icache"
	"repro/internal/stats"
	"repro/internal/sweep"
	"repro/internal/workloads"
)

// ICacheStudy simulates a small instruction cache over the code-cache
// layout for every selector: the §1 claim that separation hurts
// "instruction cache performance as control jumps between distant traces"
// measured directly as i-cache misses per thousand cached instructions.
func ICacheStudy(r *sweep.Runner, scale int) (Figure, error) {
	cfg := icache.Config{SizeBytes: 1 << 10, LineBytes: 32, Ways: 2}
	t := stats.NewTable("", []string{"misses/1k-instr", "miss-rate%", "accesses"},
		"%15.2f", "%10.2f", "%10.0f")
	for _, sel := range AllSelectors() {
		var misses, accesses, cachedInstrs float64
		for _, b := range workloads.SpecNames() {
			ic, err := icache.New(cfg)
			if err != nil {
				return Figure{}, err
			}
			rep, err := r.Simulate(workloads.MustGet(b).Build(scale), sel, dynopt.Config{ICache: ic}, nil)
			if err != nil {
				return Figure{}, err
			}
			misses += float64(ic.Misses())
			accesses += float64(ic.Accesses())
			cachedInstrs += float64(rep.CacheInstrs)
		}
		mper1k := 0.0
		if cachedInstrs > 0 {
			mper1k = 1000 * misses / cachedInstrs
		}
		rate := 0.0
		if accesses > 0 {
			rate = 100 * misses / accesses
		}
		t.Add(sel, mper1k, rate, accesses)
	}
	return Figure{
		ID:    "icache",
		Title: "simulated 1KiB/32B/2-way i-cache over the code-cache layout (extension)",
		Table: t,
		Takeaway: "fewer, larger, cycle-spanning regions keep fetch inside a line's " +
			"reach: LEI-based selection misses less than NET-based per instruction " +
			"executed from the cache",
	}, nil
}
