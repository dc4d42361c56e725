package tracestream

import (
	"math"

	"repro/internal/dynopt"
	"repro/internal/vm"
)

// minRepeatCount is the fewest periods a repeat lists. The replay walks the
// first period, which is entered from outside the repeat, and the second,
// which tests whether the walk came back to where it started; only a third
// and later periods can be skipped.
const minRepeatCount = 3

// minSkipEvents is the fewest events a repeat must leave to skip — its
// third and later periods. Each listed repeat costs the replay two cuts of
// its walk and one logged period, about as much as walking a dozen cached
// events; shorter repeats would cost more than they save.
const minSkipEvents = 16

// repeatFinder finds the repeats of a block-event stream (dynopt.Repeat) in
// one left-to-right pass, one event at a time. At each event it tries one
// period only: the distance back to the latest event with the same Src,
// when that event is identical and at most dynopt.MaxRepeatPeriod back.
// It then extends the match for as long as every event equals the one a
// period before it, and lists the match when it spans minRepeatCount whole
// periods and leaves minSkipEvents events to skip. Repeats come out sorted
// and disjoint. The finder is greedy: a shorter period hidden inside a
// longer match is not looked for.
type repeatFinder struct {
	// last holds, per slot of Src addresses, one plus the index of the
	// latest event (zero: not seen yet). Addresses share a slot modulo
	// lastSlots: a shared slot can only hide a candidate period, never
	// invent one, since every candidate is checked against the events.
	last [lastSlots]int32
	// period is the period of the match in progress (zero: none) and from
	// the first index that matched it.
	period, from int
	// floor is the end of the last listed repeat: a match reaching back
	// before it is listed from there on.
	floor int
	reps  []dynopt.Repeat
}

// lastSlots is the size of the finder's last-occurrence table: a power of
// two far above the distinct blocks of one period, small enough to stay in
// the first-level cache.
const lastSlots = 1024

// scan advances the finder over events[lo:hi], where events is the whole
// stream and lo is where the previous scan stopped. Streams of more events
// than an int32 indexes list no repeats.
//
//lint:hotpath one pass over every recorded event
func (f *repeatFinder) scan(events []vm.BlockEvent, lo, hi int) {
	if len(events) > math.MaxInt32 {
		return
	}
	last, period := &f.last, f.period
	for i := lo; i < hi; i++ {
		ev := events[i]
		slot := &last[ev.Src%lastSlots]
		if period > 0 {
			if ev == events[i-period] {
				*slot = int32(i + 1)
				continue
			}
			f.period = period
			f.close(i)
			period = 0
		}
		j := int(*slot) - 1
		*slot = int32(i + 1)
		if j >= 0 && i-j <= dynopt.MaxRepeatPeriod && ev == events[j] {
			period, f.from = i-j, i
		}
	}
	f.period = period
}

// close ends the match in progress at end, listing it when it spans enough
// whole periods and leaves enough events to skip. Most matches are a few
// events long, so the length is tested before it is divided.
func (f *repeatFinder) close(end int) {
	p := f.period
	f.period = 0
	start := max(f.from-p, f.floor)
	if n := end - start; n < minRepeatCount*p || n-2*p < minSkipEvents {
		return
	}
	if k := (end - start) / p; (k-2)*p >= minSkipEvents {
		f.reps = append(f.reps, dynopt.Repeat{Start: int32(start), Period: int32(p), Count: int32(k)})
		f.floor = start + k*p
	}
}

// finish closes a match still open at the end of a stream of n events and
// returns the repeats.
func (f *repeatFinder) finish(n int) []dynopt.Repeat {
	if f.period > 0 {
		f.close(n)
	}
	return f.reps
}
