package tracestream

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/dynopt"
	"repro/internal/isa"
	"repro/internal/vm"
	"repro/internal/workloads"
)

// findRepeats runs the finder over events in scans of chunk events, as
// NewCorpus does with scanChunk.
func findRepeats(events []vm.BlockEvent, chunk int) []dynopt.Repeat {
	var f repeatFinder
	for lo := 0; lo < len(events); lo += chunk {
		f.scan(events, lo, min(lo+chunk, len(events)))
	}
	return f.finish(len(events))
}

// checkRepeats checks every property a replay relies on: each repeat's
// period really repeats Count times, the period and count are in range and
// leave enough events to skip, and the list is sorted and disjoint.
func checkRepeats(events []vm.BlockEvent, reps []dynopt.Repeat) error {
	end := 0
	for n, rp := range reps {
		start, p, k := int(rp.Start), int(rp.Period), int(rp.Count)
		if p < 1 || p > dynopt.MaxRepeatPeriod {
			return fmt.Errorf("repeat %d %+v: period out of [1,%d]", n, rp, dynopt.MaxRepeatPeriod)
		}
		if k < minRepeatCount || (k-2)*p < minSkipEvents {
			return fmt.Errorf("repeat %d %+v: too short to list", n, rp)
		}
		if start < end {
			return fmt.Errorf("repeat %d %+v: starts before the previous one ends at %d", n, rp, end)
		}
		end = start + p*k
		if end > len(events) {
			return fmt.Errorf("repeat %d %+v: runs past the stream's %d events", n, rp, len(events))
		}
		for t := start + p; t < end; t++ {
			if events[t] != events[t-p] {
				return fmt.Errorf("repeat %d %+v: event %d differs from event %d", n, rp, t, t-p)
			}
		}
	}
	return nil
}

// periodicEvents builds a stream of count periods of p events drawn from
// rng, with an aperiodic prefix and suffix, over Src addresses below 64.
func periodicEvents(rng *rand.Rand, p, count int) []vm.BlockEvent {
	ev := func() vm.BlockEvent {
		return vm.BlockEvent{Src: isa.Addr(rng.Intn(64)), Tgt: isa.Addr(rng.Intn(64)), Taken: rng.Intn(2) == 0}
	}
	var out []vm.BlockEvent
	for range rng.Intn(20) {
		out = append(out, ev())
	}
	period := make([]vm.BlockEvent, p)
	for i := range period {
		period[i] = ev()
	}
	for range count {
		out = append(out, period...)
	}
	for range rng.Intn(20) {
		out = append(out, ev())
	}
	return out
}

// TestRepeatFinderProperties checks the finder's output on every registered
// workload's stream and on random periodic streams, scanned whole and in
// chunks of several sizes: every repeat holds (checkRepeats), chunking
// never changes the list, and a long periodic stretch is found.
func TestRepeatFinderProperties(t *testing.T) {
	for _, name := range workloads.Names() {
		p := workloads.MustGet(name).Build(40)
		rec := NewMemRecorder(p, name, 40)
		if _, err := vm.Run(p, vm.Config{}, rec); err != nil {
			t.Fatal(err)
		}
		whole := findRepeats(rec.events, len(rec.events)+1)
		if err := checkRepeats(rec.events, whole); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, chunk := range []int{1, 5, 64} {
			if got := findRepeats(rec.events, chunk); !reflect.DeepEqual(got, whole) {
				t.Fatalf("%s: scans of %d events list %d repeats, one scan %d", name, chunk, len(got), len(whole))
			}
		}
	}
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 500; trial++ {
		p := 1 + rng.Intn(dynopt.MaxRepeatPeriod)
		count := 3 + rng.Intn(40)
		events := periodicEvents(rng, p, count)
		reps := findRepeats(events, 1+rng.Intn(100))
		if err := checkRepeats(events, reps); err != nil {
			t.Fatalf("trial %d (period %d, count %d): %v", trial, p, count, err)
		}
		if count*p >= 4*(dynopt.MaxRepeatPeriod+minSkipEvents) && len(reps) == 0 {
			t.Fatalf("trial %d: %d periods of %d events listed no repeat", trial, count, p)
		}
	}
}

// FuzzRepeatFinder checks the finder's properties (checkRepeats) and its
// chunking invariance on arbitrary streams. Each input byte is one event
// over a handful of Src and Tgt values, so inputs are rich in repeats.
func FuzzRepeatFinder(f *testing.F) {
	f.Add(uint8(7), []byte{1, 2, 3, 1, 2, 3, 1, 2, 3, 1, 2, 3, 1, 2, 3, 1, 2, 3, 1, 2, 3, 1, 2, 3, 9})
	f.Add(uint8(1), []byte("aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaab"))
	f.Add(uint8(0), []byte("abcabcabcabcabcabcabdabcabcabcabcabcabcabcabcabc"))
	f.Fuzz(func(t *testing.T, chunk uint8, data []byte) {
		events := make([]vm.BlockEvent, len(data))
		for i, b := range data {
			events[i] = vm.BlockEvent{Src: isa.Addr(b & 0x1f), Tgt: isa.Addr(b >> 5), Taken: b&0x10 != 0}
		}
		whole := findRepeats(events, len(events)+1)
		if err := checkRepeats(events, whole); err != nil {
			t.Fatal(err)
		}
		if got := findRepeats(events, 1+int(chunk)); !reflect.DeepEqual(got, whole) {
			t.Fatalf("scans of %d events list %v, one scan %v", 1+int(chunk), got, whole)
		}
	})
}

// BenchmarkRepeatFinder measures the finder alone, in ns per scanned event,
// over the recorded streams of three SPEC workloads: one with no repeats,
// one with mostly short ones and one that is almost one long repeat.
func BenchmarkRepeatFinder(b *testing.B) {
	for _, name := range []string{"vortex", "gcc", "mcf"} {
		p := workloads.MustGet(name).Build(0)
		rec := NewMemRecorder(p, name, 0)
		if _, err := vm.Run(p, vm.Config{}, rec); err != nil {
			b.Fatal(err)
		}
		events := rec.events
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				var f repeatFinder
				for lo := 0; lo < len(events); lo += scanChunk {
					f.scan(events, lo, min(lo+scanChunk, len(events)))
				}
				f.finish(len(events))
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(events)), "ns/event")
		})
	}
}
