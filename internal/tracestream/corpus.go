package tracestream

import (
	"fmt"
	"strings"

	"repro/internal/metrics"
	"repro/internal/program"
	"repro/internal/workloads"
)

// RefPrefix marks a workload name as a trace-corpus reference: everything
// after the prefix is a stream file path. cmd/sweep grids and sweepd jobs
// carry these alongside registered workload names.
const RefPrefix = "trace:"

// IsRef reports whether a workload name refers to a recorded trace corpus.
func IsRef(name string) bool { return strings.HasPrefix(name, RefPrefix) }

// RefPath extracts the stream file path from a trace-corpus reference.
func RefPath(name string) string { return strings.TrimPrefix(name, RefPrefix) }

// Corpus is a replay-ready recording: the decoded stream plus the program
// it was recorded from, rebuilt from the workload registry and verified
// against the stream's embedded digest. A Corpus substitutes for a
// (program, scale) pair anywhere the selectors run — the events already
// encode everything they consume.
type Corpus struct {
	Stream *Stream
	Prog   *program.Program
	// FileDigest is the content hash of the stream file the corpus was
	// decoded from — the cache key.
	FileDigest uint64
	// edges counts the stream's control-flow edges once, for every replay
	// to borrow; nil for a corpus built by struct literal.
	edges *metrics.Edges
}

// NewCorpus pairs a recorded stream with the program it ran and counts the
// stream's edge table — the construction both the memo path
// (MemRecorder.Corpus) and the trace-file path (Cache.Load) use.
func NewCorpus(s *Stream, p *program.Program) *Corpus {
	e := new(metrics.Edges)
	e.EnsureCap(p.Len() + 1)
	e.Fold(p.Entry(), s.Events)
	return &Corpus{Stream: s, Prog: p, edges: e}
}

// Header returns the underlying stream header.
func (c *Corpus) Header() Header { return c.Stream.Header }

// Edges returns the stream's edge table, or nil when the corpus was built
// without NewCorpus. The table is shared by every replay of the corpus,
// concurrent ones included, and must only be read.
func (c *Corpus) Edges() *metrics.Edges { return c.edges }

// buildCorpus decodes raw stream bytes and rebuilds + verifies the program
// named in the header.
func buildCorpus(data []byte, fileDigest uint64) (*Corpus, error) {
	s, err := DecodeBytes(data)
	if err != nil {
		return nil, err
	}
	w, ok := workloads.Get(s.Header.Workload)
	if !ok {
		return nil, fmt.Errorf("tracestream: stream records unknown workload %q", s.Header.Workload)
	}
	p := w.Build(s.Header.Scale)
	if err := s.Header.CheckProgram(p); err != nil {
		return nil, fmt.Errorf("%w (workload %s scale %d)", err, s.Header.Workload, s.Header.Scale)
	}
	c := NewCorpus(s, p)
	c.FileDigest = fileDigest
	return c, nil
}
