package tracestream

import (
	"bytes"
	"fmt"
	"os"
	"strings"
	"unsafe"

	"repro/internal/dynopt"
	"repro/internal/metrics"
	"repro/internal/program"
	"repro/internal/vm"
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
	// decoded from — its store key.
	FileDigest uint64
	// edges counts the stream's control-flow edges once, for every replay
	// to borrow; nil for a corpus built by struct literal.
	edges *metrics.Edges
	// repeats lists the stream's repeated periods (dynopt.Repeat) for every
	// replay to skip through; nil for a corpus built by struct literal.
	repeats []dynopt.Repeat
}

// scanChunk is how many events NewCorpus hands the edge fold and the repeat
// finder at a time, so both read a chunk while it is still in cache.
const scanChunk = 4096

// NewCorpus pairs a recorded stream with the program it ran and, in one
// pass over the events, counts the stream's edge table and finds its
// repeats — the construction both the memo path (MemRecorder.Corpus) and
// the trace-file path (DecodeFile) use.
func NewCorpus(s *Stream, p *program.Program) *Corpus {
	e := new(metrics.Edges)
	e.EnsureCap(p.Len() + 1)
	var f repeatFinder
	events := s.Events
	pos := p.Entry()
	for lo := 0; lo < len(events); lo += scanChunk {
		hi := min(lo+scanChunk, len(events))
		e.Fold(pos, events[lo:hi])
		f.scan(events, lo, hi)
		pos = events[hi-1].Tgt
	}
	return &Corpus{Stream: s, Prog: p, edges: e, repeats: f.finish(len(events))}
}

// Header returns the underlying stream header.
func (c *Corpus) Header() Header { return c.Stream.Header }

// Edges returns the stream's edge table, or nil when the corpus was built
// without NewCorpus. The table is shared by every replay of the corpus,
// concurrent ones included, and must only be read.
func (c *Corpus) Edges() *metrics.Edges { return c.edges }

// Repeats returns the stream's repeat list, sorted and disjoint, or nil when
// the corpus was built without NewCorpus. Like the edge table it is shared
// by every replay and must only be read.
func (c *Corpus) Repeats() []dynopt.Repeat { return c.repeats }

// Replay runs cfg over the recorded events instead of the VM, borrowing the
// corpus's edge table and skipping through its repeats (dynopt.RunEdges);
// the result equals the live run the corpus recorded. The corpus is
// read-only, so replays may run concurrently.
//
//lint:hotpath corpus replay (sweep.TestShardMemoAllocFree)
func (c *Corpus) Replay(cfg dynopt.Config) (dynopt.Result, error) {
	h := &c.Stream.Header
	return dynopt.RunEdges(c.Prog, cfg, c.Stream.Events, c.edges, c.repeats, h.FinalPC, h.Instrs)
}

// Resident footprints of one arena slot and one repeat.
const (
	eventBytes  = int64(unsafe.Sizeof(vm.BlockEvent{}))
	repeatBytes = int64(unsafe.Sizeof(dynopt.Repeat{}))
)

// SizeBytes reports the corpus's resident footprint — the event arena, the
// edge table and the repeat list — which is what admission to a Store
// charges, for a recording and a decoded file alike. Capacity, not length:
// the grown backing arrays are what the process actually holds.
func (c *Corpus) SizeBytes() int64 {
	n := int64(cap(c.Stream.Events))*eventBytes + int64(cap(c.repeats))*repeatBytes
	if c.edges != nil {
		n += c.edges.SizeBytes()
	}
	return n
}

// ResolveRef resolves a trace-corpus reference ("trace:<path>") without
// decoding its events: it reads the file once to key it by content,
// rebuilds the program its header names from the workload registry, and
// verifies that program against the header's digest. The sweep engine
// resolves each reference once per Runner and decodes (DecodeFile) or
// streams the file only when a job needs its events.
func ResolveRef(ref string) (Key, *program.Program, error) {
	if !IsRef(ref) {
		return Key{}, nil, fmt.Errorf("tracestream: %q is not a trace reference", ref)
	}
	data, err := os.ReadFile(RefPath(ref))
	if err != nil {
		return Key{}, nil, fmt.Errorf("tracestream: %w", err)
	}
	rd, err := NewReader(bytes.NewReader(data))
	if err != nil {
		return Key{}, nil, fmt.Errorf("%w (file %s)", err, RefPath(ref))
	}
	h := rd.Header()
	w, ok := workloads.Get(h.Workload)
	if !ok {
		return Key{}, nil, fmt.Errorf("tracestream: stream records unknown workload %q", h.Workload)
	}
	p := w.Build(h.Scale)
	if err := h.CheckProgram(p); err != nil {
		return Key{}, nil, fmt.Errorf("%w (workload %s scale %d)", err, h.Workload, h.Scale)
	}
	return Key{Digest: fnv64(data)}, p, nil
}

// DecodeFile fully decodes the stream file at path into a corpus of
// program p, which ResolveRef returned for the same file under key k. The
// file must still hold the content k was taken from.
func DecodeFile(path string, k Key, p *program.Program) (*Corpus, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("tracestream: %w", err)
	}
	if fnv64(data) != k.Digest {
		return nil, fmt.Errorf("tracestream: %s changed since it was resolved", path)
	}
	s, err := DecodeBytes(data)
	if err != nil {
		return nil, fmt.Errorf("%w (file %s)", err, path)
	}
	c := NewCorpus(s, p)
	c.FileDigest = k.Digest
	return c, nil
}

// fnv64 is FNV-1a over the raw stream bytes — a file's content key.
func fnv64(b []byte) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, c := range b {
		h ^= uint64(c)
		h *= prime64
	}
	return h
}
