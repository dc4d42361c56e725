package tracestream

import (
	"bytes"
	"fmt"
	"os"

	"repro/internal/program"
	"repro/internal/workloads"
)

// Source is the input a corpus is built from: a program, keyed by its
// digest, whose corpus is recorded in memory (Store.FillRecording) — or,
// with a Path, a trace file resolved for that program (ResolveRef), keyed
// by the file's content and decoded from disk (Store.FillFile).
type Source struct {
	Key  Key
	Prog *program.Program
	// Path is the stream file of a trace reference, and empty for a
	// program recorded in memory.
	Path string
	// Events is a trace file's header event count: a lower bound on its
	// decoded corpus's size that a store checks before decoding it.
	Events uint64
}

// ResolveRef resolves a trace-corpus reference ("trace:<path>") without
// decoding its events: it reads the file once to key it by content,
// rebuilds the program its header names from the workload registry, and
// verifies that program against the header's digest. The sweep engine
// resolves each reference once per Runner and decodes (Store.FillFile) or
// streams the file only when a job needs its events.
func ResolveRef(ref string) (Source, error) {
	if !IsRef(ref) {
		return Source{}, fmt.Errorf("tracestream: %q is not a trace reference", ref)
	}
	path := RefPath(ref)
	data, err := os.ReadFile(path)
	if err != nil {
		return Source{}, fmt.Errorf("tracestream: %w", err)
	}
	rd, err := NewReader(bytes.NewReader(data))
	if err != nil {
		return Source{}, fmt.Errorf("%w (file %s)", err, path)
	}
	h := rd.Header()
	w, ok := workloads.Get(h.Workload)
	if !ok {
		return Source{}, fmt.Errorf("tracestream: stream records unknown workload %q", h.Workload)
	}
	p := w.Build(h.Scale)
	if err := h.CheckProgram(p); err != nil {
		return Source{}, fmt.Errorf("%w (workload %s scale %d)", err, h.Workload, h.Scale)
	}
	return Source{Key: Key{Digest: fnv64(data)}, Prog: p, Path: path, Events: h.Events}, nil
}

// DecodeFile fully decodes the stream file of src, which ResolveRef
// returned, into a corpus of src.Prog. The file must still hold the
// content src.Key was taken from.
func DecodeFile(src Source) (*Corpus, error) {
	data, err := os.ReadFile(src.Path)
	if err != nil {
		return nil, fmt.Errorf("tracestream: %w", err)
	}
	if fnv64(data) != src.Key.Digest {
		return nil, fmt.Errorf("tracestream: %s changed since it was resolved", src.Path)
	}
	s, err := DecodeBytes(data)
	if err != nil {
		return nil, fmt.Errorf("%w (file %s)", err, src.Path)
	}
	c := NewCorpus(s, src.Prog)
	c.FileDigest = src.Key.Digest
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
