package difftest

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/dynopt"
	"repro/internal/isa"
	"repro/internal/program"
	"repro/internal/vm"
	"repro/internal/workloads"
)

// fuzzProgs lazily builds a small cycle of random structured programs so
// each fuzz execution gets a real control-flow substrate without paying
// generation cost per input.
var (
	fuzzProgMu sync.Mutex
	fuzzProgs  [8]*program.Program
)

func fuzzProgram(seed uint8) *program.Program {
	i := int(seed) % len(fuzzProgs)
	fuzzProgMu.Lock()
	defer fuzzProgMu.Unlock()
	if fuzzProgs[i] == nil {
		fuzzProgs[i] = workloads.Random(workloads.GenConfig{
			Seed:       int64(i) + 1,
			Funcs:      i % 3,
			MaxDepth:   2,
			Iters:      6,
			Constructs: 3,
		})
	}
	return fuzzProgs[i]
}

func fuzzSeeds(f *testing.F) {
	f.Add(uint8(0), []byte{})
	f.Add(uint8(1), []byte{3, 1, 1, 5, 2, 1, 3, 4, 0x81})
	f.Add(uint8(2), []byte{0, 0, 1, 0, 0, 1, 0, 0, 1, 0, 0, 1, 0, 0, 1})
	f.Add(uint8(3), []byte{7, 2, 0x80, 7, 2, 1, 9, 3, 1, 7, 2, 1, 1, 1, 0})
	f.Add(uint8(5), []byte{2, 9, 1, 4, 9, 1, 2, 9, 1, 4, 9, 1, 2, 9, 1, 4, 9, 1})
}

// FuzzNETSelect cross-checks the dense NET selector (slice-indexed
// recording table, dense Mojo exit-target marks) against the frozen
// map-based reference on arbitrary branch streams.
func FuzzNETSelect(f *testing.F) {
	fuzzSeeds(f)
	f.Fuzz(func(t *testing.T, progSeed uint8, data []byte) {
		p := fuzzProgram(progSeed)
		params := RandomParams(int64(progSeed))
		if err := CompareStreams(p, core.NewNET(params), NewRefNET(params), data); err != nil {
			t.Fatalf("net: %v", err)
		}
		if err := CompareStreams(p, core.NewMojoNET(params, 2), NewRefMojoNET(params, 2), data); err != nil {
			t.Fatalf("mojo-net: %v", err)
		}
	})
}

// FuzzCombinedSelect drives both trace-combination selectors through
// arbitrary streams — including the cache-resident phases FeedStream
// emulates once combined regions land, which exercise the Combiner's
// observed-trace storage and cache-exit qualification paths — and
// cross-checks a pooled, Reset selector against a freshly constructed one:
// after polluting a Combiner with a different program, parameter point, and
// stream, Reset must make it behave bit-identically to new. The same data
// read as a path through the program (pathEvents) then drives a fresh
// Combiner and the frozen RefCombiner through the simulator, whose
// observed traces must decode to what the Combiner stored.
func FuzzCombinedSelect(f *testing.F) {
	fuzzSeeds(f)
	// Streams verified (against an in-package span scanner) to make the
	// Combiner store observed traces that hit both rare Figure 14 encodings:
	// taken-indirect symbols carrying a 32-bit target and cyclic traces whose
	// closing branch re-enters the head.
	f.Add(uint8(1), []byte{
		0xcd, 0x61, 0x1, 0xcd, 0xf2, 0x0, 0x95, 0x71, 0x80, 0xcd, 0x19, 0x1, 0xcd, 0x7a, 0x27,
		0x95, 0xa1, 0x80, 0xcd, 0x35, 0x80, 0xcd, 0x57, 0xb4, 0xcd, 0x1, 0x1, 0x95, 0x13, 0x1,
		0xcd, 0x2a, 0x1, 0x95, 0xde, 0x1, 0x95, 0x8a, 0x1, 0xcd, 0x6b, 0x9d, 0xb1, 0x9, 0x1,
		0xac, 0x2a, 0x80, 0xcd, 0xd6, 0x0, 0x95, 0xc9, 0x52, 0x6f, 0x89, 0x1, 0x31, 0xa2, 0x80,
		0xcd, 0x66, 0x9f, 0x7b, 0xf0, 0x65, 0xcd, 0x1b, 0x1, 0xcd, 0x41, 0x1, 0xe9, 0x8f, 0x1,
		0xcd, 0xae, 0x80, 0x95, 0xcd, 0x1, 0xcd, 0x7b, 0x0, 0xcd, 0xb8, 0x6d, 0x30, 0xa3, 0x1,
		0x95, 0x15, 0x1, 0xcd, 0x75, 0x1, 0xcd, 0xc1, 0x1, 0xcd, 0xb9, 0x1, 0xcd, 0x44, 0x1,
		0x76, 0xa6, 0x80, 0xcd, 0x11, 0x1, 0x95, 0x99, 0x1, 0xcd, 0xd5, 0xbe, 0x95, 0x98, 0x1,
		0x95, 0x49, 0x1, 0xcd, 0x65, 0x41, 0x96, 0x3d, 0xae, 0xcd, 0x2e, 0x1, 0xcd, 0x42, 0x0,
		0xcd, 0xd5, 0x1, 0xcd, 0xfb, 0x1,
	})
	f.Add(uint8(1), []byte{
		0x7, 0x2d, 0xfe, 0x47, 0xf5, 0xce, 0x47, 0xa3, 0xc0, 0x47, 0x2d, 0x80, 0xa4, 0x45, 0xf6,
		0xc, 0xff, 0x80, 0x9d, 0x1e, 0x1, 0x9d, 0xc, 0x1, 0x9d, 0x7a, 0x1, 0x9d, 0xf5, 0x1,
		0x9d, 0x6c, 0x1, 0x9d, 0x4d, 0x1, 0x9d, 0xc6, 0x0, 0x9d, 0x74, 0x1, 0x47, 0x7d, 0xc7,
		0x47, 0xb7, 0x1, 0x9d, 0x79, 0xca, 0x9d, 0xcd, 0x1, 0x9d, 0xdc, 0x0, 0x47, 0x6c, 0xd,
		0x9d, 0x8, 0x80, 0x9d, 0xc1, 0x1, 0x9d, 0xb4, 0x1, 0x17, 0xff, 0x0, 0x47, 0x36, 0x0,
		0x47, 0x66, 0x1, 0x9d, 0x7c, 0x1, 0x17, 0x8b, 0x1, 0x9d, 0x76, 0x0, 0x47, 0x4a, 0x0,
		0x9d, 0x32, 0x1, 0x9d, 0x1d, 0x9, 0x9d, 0xb3, 0x0, 0x9d, 0x1d, 0x1, 0x47, 0xf2, 0x1,
		0x9d, 0xc9, 0x80, 0x9d, 0xc3, 0x1, 0x9d, 0x97, 0x1, 0x9d, 0x7, 0x1, 0x42, 0xcb, 0x1,
		0x9d, 0xd, 0xef, 0x9d, 0x91, 0x1, 0x9d, 0x69, 0x1, 0x9d, 0x6d, 0x1,
	})
	f.Add(uint8(2), []byte{
		0x41, 0xae, 0x80, 0x41, 0x5d, 0x1, 0x57, 0xe4, 0xf, 0x41, 0x6a, 0x1, 0x41, 0xf, 0x10,
		0x57, 0x34, 0x80, 0x41, 0xa8, 0x1, 0x41, 0xa5, 0x1, 0xcb, 0x64, 0x1, 0x41, 0xf3, 0x78,
		0x41, 0x6d, 0x1, 0x13, 0x37, 0x80, 0x57, 0x89, 0x1, 0x41, 0x86, 0x1, 0xd4, 0x2b, 0xb8,
		0x13, 0x4e, 0x72, 0x41, 0x14, 0x1, 0x41, 0xd0, 0x1, 0x41, 0x89, 0x1, 0x41, 0x69, 0xba,
		0x41, 0x85, 0x0, 0x57, 0x5e, 0x0, 0x41, 0x48, 0x1, 0x41, 0x50, 0x1, 0x41, 0xd0, 0x1,
		0x1f, 0xa5, 0xd2, 0x57, 0x87, 0x1, 0x57, 0x11, 0x1, 0x41, 0xed, 0x80, 0x41, 0x51, 0x1,
		0x41, 0x88, 0x85, 0x41, 0xc2, 0x9d, 0x41, 0x81, 0x1, 0x4b, 0x9c, 0x1, 0x9a, 0xef, 0xa6,
		0x42, 0x25, 0x80, 0x57, 0x8f, 0x1, 0x41, 0x97, 0x1, 0x57, 0x35, 0x1, 0x15, 0x78, 0x32,
		0x41, 0xad, 0x1, 0x41, 0xf, 0x1, 0x57, 0x55, 0x3a, 0xb, 0x8c, 0x1, 0x41, 0xf5, 0x0,
	})
	f.Fuzz(func(t *testing.T, progSeed uint8, data []byte) {
		p := fuzzProgram(progSeed)
		params := RandomParams(int64(progSeed))
		for _, base := range []core.BaseAlgorithm{core.BaseNET, core.BaseLEI} {
			fresh := core.NewCombiner(base, params)
			fenv := FeedStream(p, fresh, data)

			pooled := core.NewCombiner(base, RandomParams(int64(progSeed)+3))
			FeedStream(fuzzProgram(progSeed+1), pooled, data)
			pooled.Reset(params)
			penv := FeedStream(p, pooled, data)

			name := map[core.BaseAlgorithm]string{core.BaseNET: "net+comb", core.BaseLEI: "lei+comb"}[base]
			if len(fenv.errs) != len(penv.errs) {
				t.Fatalf("%s: selector error divergence: fresh=%v pooled=%v", name, fenv.errs, penv.errs)
			}
			if fs, ps := fresh.Stats(), pooled.Stats(); fs != ps {
				t.Fatalf("%s: stats divergence after Reset: fresh=%+v pooled=%+v", name, fs, ps)
			}
			if err := CompareCaches(fenv.cache, penv.cache); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			// The frozen reference decodes each observed trace by walking
			// the program, so it is compared on a path the program can take.
			events := pathEvents(p, data)
			if err := comparePath(p, core.NewCombiner(base, params), NewRefCombiner(base, params), events); err != nil {
				t.Fatalf("%s against the frozen reference: %v", name, err)
			}
		}
	})
}

// pathEvents decodes data into a block-event stream p's control flow can
// produce: from the entry, each two-byte record ends the current block the
// way its final instruction allows — a conditional branch taken or not by
// the first byte's low bit, an indirect transfer to the block leader the
// second byte picks, every other instruction the one way it goes — until
// the data ends or the program halts.
func pathEvents(p *program.Program, data []byte) []vm.BlockEvent {
	leaders := p.BlockStarts()
	var events []vm.BlockEvent
	pos := p.Entry()
	for i := 0; i+2 <= len(data); i += 2 {
		src := p.BlockEnd(pos) - 1
		in := p.At(src)
		ev := vm.BlockEvent{Src: src, Tgt: src + 1, Kind: streamKind(p, src), Taken: true}
		switch {
		case in.Op == isa.Halt:
			return events
		case in.IsIndirect():
			ev.Tgt = leaders[int(data[i+1])%len(leaders)]
		case in.Op == isa.Br:
			if data[i]&1 != 0 {
				ev.Tgt = in.Target
			} else {
				ev.Taken = false
			}
		case in.Op == isa.Jmp || in.Op == isa.Call:
			ev.Tgt = in.Target
		default:
			ev.Taken = false
		}
		events = append(events, ev)
		pos = ev.Tgt
	}
	return events
}

// comparePath runs the dense selector and its frozen reference over one
// block-event stream, a run cut short wherever the stream ends, and
// compares them as CompareRun does.
func comparePath(p *program.Program, dense, ref core.Selector, events []vm.BlockEvent) error {
	dres, derr := dynopt.RunEdges(p, dynopt.Config{Selector: dense}, events, nil, nil, 0, 0)
	rres, rerr := dynopt.RunEdges(p, dynopt.Config{Selector: ref}, events, nil, nil, 0, 0)
	if derr != nil || rerr != nil {
		return fmt.Errorf("run failed: dense=%v ref=%v", derr, rerr)
	}
	if dres.Report != rres.Report {
		return fmt.Errorf("report divergence:\ndense: %+v\nref:   %+v", dres.Report, rres.Report)
	}
	return CompareCaches(dres.Cache, rres.Cache)
}

// FuzzLEISelect cross-checks the dense LEI selector (dense-hash history
// buffer, pre-sizable counter pool) against the frozen map-based reference
// on arbitrary branch streams, including streams that thrash a tiny history
// buffer through eviction and truncation.
func FuzzLEISelect(f *testing.F) {
	fuzzSeeds(f)
	f.Fuzz(func(t *testing.T, progSeed uint8, data []byte) {
		p := fuzzProgram(progSeed)
		params := RandomParams(int64(progSeed))
		if err := CompareStreams(p, core.NewLEI(params), NewRefLEI(params), data); err != nil {
			t.Fatalf("lei: %v", err)
		}
		// A one-entry buffer maximizes eviction and dangling-hash traffic.
		tiny := params
		tiny.HistoryCap = 1
		if err := CompareStreams(p, core.NewLEI(tiny), NewRefLEI(tiny), data); err != nil {
			t.Fatalf("lei tiny-buffer: %v", err)
		}
	})
}
