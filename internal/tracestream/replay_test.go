package tracestream_test

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"testing"

	"repro/internal/core"
	"repro/internal/dynopt"
	"repro/internal/icache"
	"repro/internal/metrics"
	"repro/internal/sweep"
	"repro/internal/tracestream"
	"repro/internal/vm"
	"repro/internal/workloads"
)

// diffSelectors is the full evaluation set the differential covers: the
// paper's four plus the adaptive meta-selector.
var diffSelectors = []string{sweep.NET, sweep.LEI, sweep.NETComb, sweep.LEIComb, sweep.Adaptive}

// reportJSON renders a report for comparison. JSON bytes, not
// reflect.DeepEqual: the serialized form is what sinks emit, and it
// distinguishes float artifacts (-0.0 vs 0.0) that == would hide.
func reportJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestReplayMatchesLive is the acceptance differential: for every
// registered workload under every selector in the evaluation set, replaying
// a recorded stream — both streamed through a Reader into RunStream and
// fully decoded into RunEvents — produces a report byte-identical to the
// live VM run that made the recording.
func TestReplayMatchesLive(t *testing.T) {
	const scale = 25
	for _, name := range workloads.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			prog := workloads.MustGet(name).Build(scale)
			// Record once per workload, with the interpreter alone.
			var buf bytes.Buffer
			if _, err := tracestream.Record(prog, name, scale, vm.Config{}, &buf); err != nil {
				t.Fatal(err)
			}
			recorded := buf.Bytes()
			for _, selName := range diffSelectors {
				sel, err := sweep.NewSelector(selName, core.DefaultParams())
				if err != nil {
					t.Fatal(err)
				}
				live, err := dynopt.Run(prog, dynopt.Config{Selector: sel})
				if err != nil {
					t.Fatal(err)
				}
				liveJSON := reportJSON(t, live.Report)

				sel2, err := sweep.NewSelector(selName, core.DefaultParams())
				if err != nil {
					t.Fatal(err)
				}
				rd, err := tracestream.NewReader(bytes.NewReader(recorded))
				if err != nil {
					t.Fatal(err)
				}
				hdr := rd.Header()
				if err := hdr.CheckProgram(prog); err != nil {
					t.Fatal(err)
				}
				streamed, err := dynopt.RunStream(prog, dynopt.Config{Selector: sel2}, rd.Feed)
				if err != nil {
					t.Fatalf("%s: streamed replay: %v", selName, err)
				}
				if got := reportJSON(t, streamed.Report); !bytes.Equal(got, liveJSON) {
					t.Errorf("%s: streamed replay report differs from live run:\nlive:   %s\nreplay: %s",
						selName, liveJSON, got)
				}

				sel3, err := sweep.NewSelector(selName, core.DefaultParams())
				if err != nil {
					t.Fatal(err)
				}
				s, err := tracestream.DecodeBytes(recorded)
				if err != nil {
					t.Fatal(err)
				}
				events, err := dynopt.RunEvents(prog, dynopt.Config{Selector: sel3},
					s.Events, s.Header.FinalPC, s.Header.Instrs)
				if err != nil {
					t.Fatalf("%s: decoded replay: %v", selName, err)
				}
				if got := reportJSON(t, events.Report); !bytes.Equal(got, liveJSON) {
					t.Errorf("%s: decoded replay report differs from live run:\nlive:   %s\nreplay: %s",
						selName, liveJSON, got)
				}
			}
		})
	}
}

// TestSweepReplayMatchesLiveSweep pins the engine-level equivalence the
// trace workload class rests on: a sweep over trace:<path> corpora delivers
// reports identical (up to the workload label, which carries the reference)
// to the same grid over the live workloads — and the shard replay loop is
// allocation-free in steady state like the live one.
func TestSweepReplayMatchesLiveSweep(t *testing.T) {
	const scale = 25
	dir := t.TempDir()
	live := sweep.Grid{Workloads: []string{"gzip", "fig3-nested-loops"}, Scale: scale, Selectors: diffSelectors}
	traced := sweep.Grid{Scale: scale, Selectors: diffSelectors}
	for _, name := range live.Workloads {
		path := dir + "/" + name + ".trace"
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		prog := workloads.MustGet(name).Build(scale)
		_, err = tracestream.Record(prog, name, scale, vm.Config{}, f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			t.Fatal(err)
		}
		traced.Workloads = append(traced.Workloads, "trace:"+path)
	}
	run := func(g sweep.Grid) []sweep.Result {
		var out []sweep.Result
		if err := sweep.RunGrid(context.Background(), g, sweep.Options{Shards: 2},
			sweep.FuncSink(func(r sweep.Result) { out = append(out, r) })); err != nil {
			t.Fatal(err)
		}
		return out
	}
	liveRes, traceRes := run(live), run(traced)
	if len(liveRes) != len(traceRes) {
		t.Fatalf("live sweep delivered %d results, trace sweep %d", len(liveRes), len(traceRes))
	}
	for i := range liveRes {
		lr, tr := liveRes[i].Report, traceRes[i].Report
		tr.Workload = lr.Workload // the only allowed difference
		if got, want := reportJSON(t, tr), reportJSON(t, lr); !bytes.Equal(got, want) {
			t.Errorf("cell %d (%s/%s): trace sweep differs from live:\nlive:  %s\ntrace: %s",
				i, liveRes[i].Job.Workload, liveRes[i].Job.Selector, want, got)
		}
	}
}

// TestShardReplayAllocFree extends the sweep engine's zero-alloc pin to the
// corpus replay path: after warm-up, Shard.Replay performs no heap
// allocations per job, both when it borrows the corpus's edge table and
// when a table-less corpus makes it count into the shard's scratch.
func TestShardReplayAllocFree(t *testing.T) {
	const name, scale = "gzip", 40
	prog := workloads.MustGet(name).Build(scale)
	var buf bytes.Buffer
	if _, err := tracestream.Record(prog, name, scale, vm.Config{}, &buf); err != nil {
		t.Fatal(err)
	}
	s, err := tracestream.DecodeBytes(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	corpora := []struct {
		mode   string
		corpus *tracestream.Corpus
	}{
		{"counted", &tracestream.Corpus{Stream: s, Prog: prog}},
		{"borrowed", tracestream.NewCorpus(s, prog)},
	}
	shard := sweep.NewShard()
	for _, selName := range diffSelectors[:4] { // adaptive pools separately
		selName := selName
		t.Run(selName, func(t *testing.T) {
			job := sweep.Job{Workload: name, Selector: selName, Params: core.DefaultParams()}
			for _, c := range corpora {
				corpus := c.corpus
				t.Run(c.mode, func(t *testing.T) {
					for i := 0; i < 2; i++ {
						if _, err := shard.Replay(corpus, job); err != nil {
							t.Fatal(err)
						}
					}
					allocs := testing.AllocsPerRun(5, func() {
						if _, err := shard.Replay(corpus, job); err != nil {
							t.Fatal(err)
						}
					})
					if allocs != 0 {
						t.Fatalf("steady-state shard replay allocated %.1f times, want 0", allocs)
					}
				})
			}
		})
	}
}

// TestReplayMatchesLiveFigureConfigs extends the differential to the Config
// fields only the extension figures set, which replay through the memo
// store like every other run: an i-cache over the code-cache layout, a
// preloaded snapshot of a cold run, a 512-byte bounded cache, and loop
// coverage analyzed over the replay's borrowed edge table. For each, a
// Corpus.Replay of one MemRecorder recording must equal the live run
// (vortex overflows 512 bytes and has a hot natural loop).
func TestReplayMatchesLiveFigureConfigs(t *testing.T) {
	const scale = 300
	prog := workloads.MustGet("vortex").Build(scale)
	rec := tracestream.NewMemRecorder(prog, "vortex", scale)
	st, err := vm.Run(prog, vm.Config{}, rec)
	if err != nil {
		t.Fatal(err)
	}
	c := &rec.Corpus(st).Corpus
	// The bounded case is vacuous unless some selector's code overflows.
	flushes := 0
	for _, selName := range diffSelectors {
		t.Run(selName, func(t *testing.T) {
			// both runs cfg live and replayed, each under a fresh selector
			// and with the fields mk sets.
			both := func(mk func() dynopt.Config) (live, replay dynopt.Result) {
				t.Helper()
				for _, res := range []*dynopt.Result{&live, &replay} {
					cfg := mk()
					sel, err := sweep.NewSelector(selName, core.DefaultParams())
					if err != nil {
						t.Fatal(err)
					}
					cfg.Selector = sel
					if res == &live {
						*res, err = dynopt.Run(prog, cfg)
					} else {
						*res, err = c.Replay(cfg)
					}
					if err != nil {
						t.Fatal(err)
					}
				}
				if got, want := reportJSON(t, replay.Report), reportJSON(t, live.Report); !bytes.Equal(got, want) {
					t.Fatalf("replayed report diverges:\nreplay %s\nlive   %s", got, want)
				}
				return live, replay
			}

			var ics []*icache.Cache
			both(func() dynopt.Config {
				ic, err := icache.New(icache.Config{SizeBytes: 1 << 10, LineBytes: 32, Ways: 2})
				if err != nil {
					t.Fatal(err)
				}
				ics = append(ics, ic)
				return dynopt.Config{ICache: ic}
			})
			if live, replay := ics[0], ics[1]; live.Misses() == 0 ||
				replay.Misses() != live.Misses() || replay.Accesses() != live.Accesses() {
				t.Errorf("i-cache: replay %d misses / %d accesses, live %d / %d",
					replay.Misses(), replay.Accesses(), live.Misses(), live.Accesses())
			}

			cold, coldReplay := both(func() dynopt.Config { return dynopt.Config{} })
			lc := metrics.AnalyzeLoopCoverage(prog, cold.Cache, cold.Collector, 100)
			rc := metrics.AnalyzeLoopCoverage(prog, coldReplay.Cache, coldReplay.Collector, 100)
			if lc.HotLoops == 0 || rc != lc {
				t.Errorf("loop coverage: replay %+v, live %+v", rc, lc)
			}
			snap := cold.Cache.Snapshot()
			warm, _ := both(func() dynopt.Config { return dynopt.Config{Preload: snap} })
			if warm.Report.InterpBranches >= cold.Report.InterpBranches {
				t.Errorf("preloaded run interpreted %d branches, cold %d: the snapshot did not warm it",
					warm.Report.InterpBranches, cold.Report.InterpBranches)
			}

			live, replay := both(func() dynopt.Config { return dynopt.Config{CacheLimitBytes: 512} })
			flushes += live.Cache.Flushes()
			if replay.Cache.Flushes() != live.Cache.Flushes() {
				t.Errorf("bounded cache: replay flushed %d times, live %d", replay.Cache.Flushes(), live.Cache.Flushes())
			}
		})
	}
	if flushes == 0 {
		t.Error("no selector flushed the 512-byte cache")
	}
}

// TestReplaySkipsRepeatedPeriods pins how much of each SPEC workload's
// replay under NET the repeat list skips, at the default scale, next to the
// live run the corpus recorded. vortex, whose stream repeats no period
// three times, is the negative control and must skip nothing; eon and
// mcf, whose hot loops run entirely inside the cache, must skip more than
// half their events. Every replay must still report what the live run did.
func TestReplaySkipsRepeatedPeriods(t *testing.T) {
	for _, name := range workloads.SpecNames() {
		prog := workloads.MustGet(name).Build(0)
		rec := tracestream.NewMemRecorder(prog, name, 0)
		st, err := vm.Run(prog, vm.Config{}, rec)
		if err != nil {
			t.Fatal(err)
		}
		c := rec.Corpus(st)
		live, err := dynopt.Run(prog, dynopt.Config{Selector: core.NewNET(core.DefaultParams())})
		if err != nil {
			t.Fatal(err)
		}
		res, err := c.Replay(dynopt.Config{Selector: core.NewNET(core.DefaultParams())})
		if err != nil {
			t.Fatal(err)
		}
		if got, want := reportJSON(t, res.Report), reportJSON(t, live.Report); !bytes.Equal(got, want) {
			t.Errorf("%s: replay reports\n%s\nlive run\n%s", name, got, want)
		}
		events := len(c.Stream.Events)
		share := float64(res.Collector.SkippedEvents) / float64(events)
		t.Logf("%-8s %6d events, %4d repeats, %5.1f%% skipped", name, events, len(c.Repeats()), 100*share)
		switch name {
		case "vortex":
			if res.Collector.SkippedEvents != 0 {
				t.Errorf("vortex skipped %d events, want 0", res.Collector.SkippedEvents)
			}
		case "eon", "mcf":
			if share <= 0.5 {
				t.Errorf("%s skipped %.1f%% of its events, want more than half", name, 100*share)
			}
		}
	}
}
