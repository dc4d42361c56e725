package dynopt

import (
	"repro/internal/codecache"
	"repro/internal/metrics"
)

// MaxRepeatPeriod bounds a Repeat's period, in events. It also bounds the
// regions one period can touch — the region it starts in plus one entered
// per event — so the period log is a fixed array.
const MaxRepeatPeriod = 16

// Repeat is a periodic stretch of a block-event stream: the Period events
// from Start occur Count times back to back, so events[Start+j+Period]
// equals events[Start+j] for every j below (Count-1)*Period.
type Repeat struct {
	Start, Period, Count int32
}

// periodLog records, for one walked period, the values every counter it can
// touch held when the period began: the collector's counters and the
// execution statistics of each region the period can enter.
type periodLog struct {
	col     metrics.Counters
	regions [MaxRepeatPeriod + 1]regionMark
	n       int
}

// regionMark is a region's execution statistics at the start of a period.
type regionMark struct {
	r                                  *codecache.Region
	entries, traversals, cycles, instr uint64
}

// begin starts a period in region r with the collector at col, dropping
// whatever the log held, so it re-arms a pooled log.
func (l *periodLog) begin(col metrics.Counters, r *codecache.Region) {
	l.col, l.n = col, 0
	l.mark(r)
}

// mark records r's statistics unless the log already holds r.
func (l *periodLog) mark(r *codecache.Region) {
	for i := range l.n {
		if l.regions[i].r == r {
			return
		}
	}
	l.regions[l.n] = regionMark{r, r.Entries, r.Traversals, r.CycleTraversals, r.ExecInstrs}
	l.n++
}

// repeat applies the period's growth n more times, to col and to every
// region the log marked.
func (l *periodLog) repeat(col *metrics.Counters, n uint64) {
	col.Repeat(l.col, n)
	for _, m := range l.regions[:l.n] {
		r := m.r
		r.Entries += (r.Entries - m.entries) * n
		r.Traversals += (r.Traversals - m.traversals) * n
		r.CycleTraversals += (r.CycleTraversals - m.cycles) * n
		r.ExecInstrs += (r.ExecInstrs - m.instr) * n
	}
}
