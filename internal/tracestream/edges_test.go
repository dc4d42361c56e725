package tracestream_test

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/dynopt"
	"repro/internal/metrics"
	"repro/internal/sweep"
	"repro/internal/tracestream"
	"repro/internal/vm"
	"repro/internal/workloads"
)

// TestCorpusEdgesMatchLive pins the edge table every replay borrows: for
// every registered workload, the table on a MemRecorder corpus (the memo
// path) and on a file corpus loaded through Store.LoadRef (the trace: path)
// equals the live run's collector, and replaying the corpus concurrently
// under all five selectors leaves it bit-identical.
func TestCorpusEdgesMatchLive(t *testing.T) {
	const scale = 25
	dir := t.TempDir()
	store := tracestream.NewStore(64 << 20)
	for _, name := range workloads.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			prog := workloads.MustGet(name).Build(scale)
			sel, err := sweep.NewSelector(sweep.NET, core.DefaultParams())
			if err != nil {
				t.Fatal(err)
			}
			rec := tracestream.NewMemRecorder(prog, name, scale)
			st, err := vm.Run(prog, vm.Config{}, rec)
			if err != nil {
				t.Fatal(err)
			}
			mem := rec.Corpus(st)
			live, err := dynopt.Run(prog, dynopt.Config{Selector: sel})
			if err != nil {
				t.Fatal(err)
			}

			path := filepath.Join(dir, name+".trace")
			f, err := os.Create(path)
			if err != nil {
				t.Fatal(err)
			}
			_, err = tracestream.Record(prog, name, scale, vm.Config{}, f)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
			if err != nil {
				t.Fatal(err)
			}
			file, err := store.LoadRef(tracestream.RefPrefix + path)
			if err != nil {
				t.Fatal(err)
			}

			for _, tc := range []struct {
				label  string
				corpus *tracestream.Corpus
			}{{"memo", &mem.Corpus}, {"file", file}} {
				edges := tc.corpus.Edges()
				if edges == nil {
					t.Fatalf("%s corpus carries no edge table", tc.label)
				}
				sameEdges(t, tc.label, edges, live.Collector.Edges())

				// fmt renders every row and cell in table order, so equal
				// strings mean no replay wrote a count, a cell or a row.
				before := fmt.Sprint(*edges)
				var wg sync.WaitGroup
				for _, selName := range diffSelectors {
					job := sweep.Job{Workload: name, Selector: selName, Params: core.DefaultParams()}
					wg.Add(1)
					go func() {
						defer wg.Done()
						if _, err := sweep.NewShard().Replay(tc.corpus, job); err != nil {
							t.Errorf("%s replay under %s: %v", tc.label, job.Selector, err)
						}
					}()
				}
				wg.Wait()
				if fmt.Sprint(*edges) != before {
					t.Errorf("%s corpus: replays changed the shared edge table", tc.label)
				}
			}
		})
	}
}

// sameEdges fails unless got and want hold the same executed edges with the
// same counts.
func sameEdges(t *testing.T, label string, got, want *metrics.Edges) {
	t.Helper()
	preds := want.PredsOf()
	if len(preds) == 0 {
		t.Fatalf("%s: live run executed no edges", label)
	}
	if !reflect.DeepEqual(got.PredsOf(), preds) {
		t.Errorf("%s: corpus predecessor lists differ from the live run's", label)
	}
	for to, froms := range preds {
		for _, from := range froms {
			if g, w := got.EdgeCount(from, to), want.EdgeCount(from, to); g != w {
				t.Errorf("%s: edge %d->%d executed %d times in the corpus table, %d live", label, from, to, g, w)
			}
		}
	}
}
