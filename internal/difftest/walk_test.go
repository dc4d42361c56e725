package difftest

import (
	"fmt"
	"testing"

	"repro/internal/codecache"
	"repro/internal/core"
	"repro/internal/dynopt"
	"repro/internal/icache"
	"repro/internal/isa"
	"repro/internal/program"
	"repro/internal/tracestream"
	"repro/internal/vm"
	"repro/internal/workloads"
)

// walkVariant names one simulator configuration the walk is diffed under.
type walkVariant int

const (
	variantPlain walkVariant = iota
	variantBounded
	variantICache
	variantPreload
	numWalkVariants
)

func (v walkVariant) String() string {
	return [...]string{"plain", "bounded", "icache", "preload"}[v]
}

// walkBoundedBytes is small enough that the random corpus flushes its
// bounded cache, so the walk runs across evicted regions.
const walkBoundedBytes = 256

// walkConfigs returns a matching pair of configurations — one for the
// production walk, one for the reference — for variant v, and a check
// comparing their i-caches after both ran. snap is the preload variant's
// cache snapshot.
func walkConfigs(t testing.TB, sel, refSel core.Selector, v walkVariant, snap []codecache.RegionSnapshot) (dynopt.Config, dynopt.Config, func() error) {
	t.Helper()
	a := dynopt.Config{Selector: sel}
	b := dynopt.Config{Selector: refSel}
	check := func() error { return nil }
	switch v {
	case variantBounded:
		a.CacheLimitBytes, b.CacheLimitBytes = walkBoundedBytes, walkBoundedBytes
	case variantICache:
		cfg := icache.Config{SizeBytes: 1 << 10, LineBytes: 32, Ways: 2}
		ica, err := icache.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		icb, _ := icache.New(cfg)
		a.ICache, b.ICache = ica, icb
		check = func() error {
			if ica.Accesses() != icb.Accesses() || ica.Misses() != icb.Misses() {
				return fmt.Errorf("i-cache divergence: walk %d accesses/%d misses, ref %d/%d",
					ica.Accesses(), ica.Misses(), icb.Accesses(), icb.Misses())
			}
			return nil
		}
	case variantPreload:
		a.Preload, b.Preload = snap, snap
	}
	return a, b, check
}

// diffWalk runs p live through the production simulator and the reference
// under one selector and variant, then replays the program's recording
// through both as one whole slice, without and with its repeat list, and
// requires identical results, i-cache traffic and tracer sequences each
// time. It adds the events the repeat-list replay skipped to skipped.
func diffWalk(t testing.TB, p *program.Program, newSel func() core.Selector, v walkVariant, skipped *uint64) error {
	t.Helper()
	var snap []codecache.RegionSnapshot
	if v == variantPreload {
		warm, err := dynopt.Run(p, dynopt.Config{Selector: newSel()})
		if err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
		snap = warm.Cache.Snapshot()
	}
	cfg, refCfg, checkIC := walkConfigs(t, newSel(), newSel(), v, snap)
	log, refLog := &TraceLog{}, &TraceLog{}
	cfg.Tracer, refCfg.Tracer = log, refLog
	rec := tracestream.NewMemRecorder(p, "walk", 0)
	cfg.Scratch = new(dynopt.Scratch)
	st, err := dynopt.Record(p, cfg.VM, cfg.Scratch, rec)
	if err != nil {
		return fmt.Errorf("record: %w", err)
	}
	got, err := dynopt.Run(p, cfg)
	if err != nil {
		return fmt.Errorf("walk: %w", err)
	}
	want, err := RefRun(p, refCfg)
	if err != nil {
		return fmt.Errorf("reference: %w", err)
	}
	if err := CompareResults(got, want); err != nil {
		return err
	}
	if err := checkIC(); err != nil {
		return err
	}
	if err := log.Diff(refLog); err != nil {
		return err
	}

	// The recording replayed in one batch must match too: live batches end
	// every 1024 events, a replay never does.
	c := rec.Corpus(st)
	h := c.Header()
	cfg, refCfg, checkIC = walkConfigs(t, newSel(), newSel(), v, snap)
	got, err = dynopt.RunEvents(p, cfg, c.Stream.Events, h.FinalPC, h.Instrs)
	if err != nil {
		return fmt.Errorf("walk replay: %w", err)
	}
	want, err = RefRunEvents(p, refCfg, c.Stream.Events, h.FinalPC, h.Instrs)
	if err != nil {
		return fmt.Errorf("reference replay: %w", err)
	}
	if err := CompareResults(got, want); err != nil {
		return fmt.Errorf("replay: %w", err)
	}
	if err := checkIC(); err != nil {
		return err
	}

	// Replayed with its repeat list, the recording must match again: the
	// walk then advances repeated in-cache periods in one step.
	cfg, refCfg, checkIC = walkConfigs(t, newSel(), newSel(), v, snap)
	got, err = c.Replay(cfg)
	if err != nil {
		return fmt.Errorf("walk replay with repeats: %w", err)
	}
	want, err = RefRunEvents(p, refCfg, c.Stream.Events, h.FinalPC, h.Instrs)
	if err != nil {
		return fmt.Errorf("reference replay: %w", err)
	}
	if err := CompareResults(got, want); err != nil {
		return fmt.Errorf("replay with repeats: %w", err)
	}
	*skipped += got.Collector.SkippedEvents
	return checkIC()
}

// TestDiffRegionWalk diffs dynopt's region-resident walk against the frozen
// event-at-a-time reference over the random-program corpus under all five
// selectors, live and replayed with and without the recording's repeat
// list. Every program runs the plain configuration; the bounded-cache,
// i-cache and preloaded-cache variants rotate across seeds. The corpus must
// exercise the skip: some repeat-list replay skips events.
func TestDiffRegionWalk(t *testing.T) {
	seeds := 1000
	if testing.Short() {
		seeds = 120
	}
	var skipped uint64
	for seed := 0; seed < seeds; seed++ {
		diffWalkSeed(t, seed, &skipped)
	}
	if skipped == 0 {
		t.Error("no replay skipped a repeated period")
	}
}

// crossRegionSeed is a corpus seed whose program puts one loop block into
// two regions under lei+comb: its recording has a period that starts and
// ends at that block but in different regions, which the replay must walk
// instead of repeating. Few seeds reach such a period, and none below the
// short corpus's 120.
const crossRegionSeed = 740

// TestDiffRegionWalkCrossRegionPeriod diffs the walk on crossRegionSeed in
// every mode, so the short run covers a repeat whose walked period ends in
// a different region from where it started.
func TestDiffRegionWalkCrossRegionPeriod(t *testing.T) {
	var skipped uint64
	diffWalkSeed(t, crossRegionSeed, &skipped)
}

// diffWalkSeed diffs corpus program seed under every selector, in the plain
// variant and the one its seed rotates to, adding skipped events to
// skipped.
func diffWalkSeed(t *testing.T, seed int, skipped *uint64) {
	t.Helper()
	p := workloads.Random(workloads.GenConfig{
		Seed:       int64(seed),
		Funcs:      seed % 4,
		MaxDepth:   2,
		Iters:      10 + seed%13,
		Constructs: 3 + seed%3,
	})
	params := RandomParams(int64(seed))
	extra := walkVariant(1 + seed%int(numWalkVariants-1))
	for _, newSel := range Selectors(params) {
		for _, v := range []walkVariant{variantPlain, extra} {
			if err := diffWalk(t, p, newSel, v, skipped); err != nil {
				t.Fatalf("seed %d under %s (%s): %v", seed, newSel().Name(), v, err)
			}
		}
	}
}

// fuzzWalkEvents steers a block-event stream through p's static control
// flow: each data byte picks a conditional branch's direction or an
// indirect transfer's target, and the data repeats so the stream has the
// hot loops selectors promote. The byte steering event flip is inverted, so
// one event breaks the pattern at that depth (a negative flip breaks none).
// The stream ends at a halt block, or after maxEvents events.
func fuzzWalkEvents(p *program.Program, data []byte, maxEvents, flip int) []vm.BlockEvent {
	if len(data) == 0 {
		return nil
	}
	leaders := p.BlockStarts()
	var events []vm.BlockEvent
	pos := p.Entry()
	for i := 0; i < maxEvents; i++ {
		b := data[i%len(data)]
		if i == flip {
			b = ^b
		}
		end := p.BlockEnd(pos)
		if int(end) >= p.Len() {
			break
		}
		src := end - 1
		last := p.At(src)
		tgt, taken := end, false
		switch {
		case last.Op == isa.Halt:
			return events
		case last.Op == isa.Br:
			if b&1 != 0 {
				tgt, taken = last.Target, true
			}
		case last.Op == isa.Jmp || last.Op == isa.Call:
			tgt, taken = last.Target, true
		case last.IsIndirect():
			tgt, taken = leaders[int(b>>1)%len(leaders)], true
		}
		events = append(events, vm.BlockEvent{Src: src, Tgt: tgt, Kind: streamKind(p, src), Taken: taken})
		pos = tgt
	}
	return events
}

// FuzzRegionWalk diffs the walk against the reference on arbitrary streams
// steered through a random program's control flow, under a selector and a
// variant the input picks, with the stream delivered in batches of an
// input-picked size so batch ends fall anywhere inside regions, and replayed
// whole with its repeat list. The last seeds steer periodic streams that
// break their pattern once, at a depth the seed picks: a repeat ends there,
// and the replay must skip up to it and no further.
func FuzzRegionWalk(f *testing.F) {
	f.Add(uint8(0), uint8(0), uint8(7), uint16(0), []byte{1, 0, 1, 1, 0, 1, 1, 1})
	f.Add(uint8(1), uint8(6), uint8(1), uint16(0), []byte{3, 1, 1, 5, 2, 1, 3, 4, 0x81})
	f.Add(uint8(2), uint8(12), uint8(64), uint16(0), []byte{0xff, 0xfe, 0xff, 0x01})
	f.Add(uint8(5), uint8(19), uint8(2), uint16(0), []byte{2, 9, 1, 4, 9, 1, 2, 9, 1, 4, 9, 1, 2, 9, 1, 4, 9, 1})
	f.Add(uint8(0), uint8(0), uint8(255), uint16(1+413), []byte{3, 1})
	f.Add(uint8(2), uint8(1), uint8(255), uint16(1+1771), []byte{1, 0, 1, 1})
	f.Add(uint8(2), uint8(7), uint8(255), uint16(1+90), []byte{3, 1})
	f.Add(uint8(3), uint8(18), uint8(255), uint16(1+2950), []byte{3, 1})
	f.Fuzz(func(t *testing.T, progSeed, variant, chunk uint8, flip uint16, data []byte) {
		p := fuzzProgram(progSeed)
		params := RandomParams(int64(progSeed))
		sels := Selectors(params)
		newSel := sels[int(variant)%len(sels)]
		v := walkVariant(int(variant)/len(sels)) % numWalkVariants
		events := fuzzWalkEvents(p, data, 4096, int(flip)-1)
		var snap []codecache.RegionSnapshot
		if v == variantPreload {
			warm, err := dynopt.RunEvents(p, dynopt.Config{Selector: newSel()}, events, 0, 0)
			if err != nil {
				t.Skip("selector failed on the stream:", err)
			}
			snap = warm.Cache.Snapshot()
		}
		cfg, refCfg, checkIC := walkConfigs(t, newSel(), newSel(), v, snap)
		log, refLog := &TraceLog{}, &TraceLog{}
		cfg.Tracer, refCfg.Tracer = log, refLog
		n := 1 + int(chunk)
		got, gerr := dynopt.RunStream(p, cfg, func(sink vm.BlockSink) (isa.Addr, uint64, error) {
			for i := 0; i < len(events); i += n {
				sink.BlockBatch(events[i:min(i+n, len(events))])
			}
			return 0, 0, nil
		})
		want, werr := RefRunEvents(p, refCfg, events, 0, 0)
		if (gerr == nil) != (werr == nil) {
			t.Fatalf("error divergence: walk=%v ref=%v", gerr, werr)
		}
		if gerr != nil {
			return
		}
		if err := CompareResults(got, want); err != nil {
			t.Fatalf("%s (%s, batches of %d): %v", newSel().Name(), v, n, err)
		}
		if err := checkIC(); err != nil {
			t.Fatal(err)
		}
		if err := log.Diff(refLog); err != nil {
			t.Fatal(err)
		}

		// Replayed whole with its repeat list, the stream must match again.
		c := tracestream.NewCorpus(&tracestream.Stream{Events: events}, p)
		cfg, refCfg, checkIC = walkConfigs(t, newSel(), newSel(), v, snap)
		got, gerr = c.Replay(cfg)
		want, werr = RefRunEvents(p, refCfg, events, 0, 0)
		if (gerr == nil) != (werr == nil) {
			t.Fatalf("replay with repeats: error divergence: walk=%v ref=%v", gerr, werr)
		}
		if gerr != nil {
			return
		}
		if err := CompareResults(got, want); err != nil {
			t.Fatalf("%s (%s, replay with %d repeats): %v", newSel().Name(), v, len(c.Repeats()), err)
		}
		if err := checkIC(); err != nil {
			t.Fatal(err)
		}
	})
}
