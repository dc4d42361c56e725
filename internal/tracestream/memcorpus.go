package tracestream

import (
	"repro/internal/program"
	"repro/internal/vm"
)

// MemRecorder captures a program's block-event stream straight into a dense
// in-memory []vm.BlockEvent arena — no varint encoding, no disk round-trip,
// no decode on replay. It implements vm.BlockSink, so it records the VM
// directly (vm.Run, dynopt.Record) exactly like an Encoder; Corpus then
// seals the arena into a replay-ready MemCorpus, whose Corpus.Replay drives
// the simulator from the events without running the VM. The sweep engine's
// memoization layer (internal/sweep) records each program once this way,
// with no simulator attached, and replays it for every run of the program.
// A recorder is reusable: Reset starts a fresh take into the same arena, so
// a long-lived recorder (one per sweep shard) records a cell without
// growing its arena again.
type MemRecorder struct {
	h      Header
	prog   *program.Program
	events []vm.BlockEvent
}

// NewMemRecorder prepares an in-memory recording of program p, labeled with
// the workload name and scale that built it.
func NewMemRecorder(p *program.Program, workload string, scale int) *MemRecorder {
	r := new(MemRecorder)
	r.Reset(p, workload, scale)
	return r
}

// Reset re-targets the recorder at program p, labeled with the workload
// name and scale that built it, and discards the recorded events. The
// arena keeps its capacity, so recording a stream no longer than an
// earlier one appends without allocating.
func (r *MemRecorder) Reset(p *program.Program, workload string, scale int) {
	r.h = Header{
		Workload:      workload,
		Scale:         scale,
		ProgramLen:    p.Len(),
		ProgramDigest: p.Digest(),
	}
	r.prog = p
	r.events = r.events[:0]
}

// ArenaBytes reports the capacity of the recorder's arena in bytes: what
// the recorder holds between takes.
func (r *MemRecorder) ArenaBytes() int64 { return int64(cap(r.events)) * eventBytes }

// EventBytes reports the size in bytes of the events recorded so far: a
// lower bound on the SizeBytes of the corpus Corpus would seal from them.
func (r *MemRecorder) EventBytes() int64 { return int64(len(r.events)) * eventBytes }

// BlockBatch implements vm.BlockSink, appending the batch to the arena. The
// VM reuses the batch slice, so events are copied, never retained.
//
//lint:hotpath recording rides the live-run event path
func (r *MemRecorder) BlockBatch(events []vm.BlockEvent) {
	r.events = append(r.events, events...)
}

// Corpus seals the recording into a replay-ready in-memory corpus, stamping
// the run totals from the recorded run's stats and counting the arena's
// edge table (NewCorpus). The corpus gets one copy of the recorded events,
// appended to a nil slice so the runtime does not zero the new array before
// the copy overwrites it (its capacity may round up to the allocation's
// size class, which SizeBytes charges); the arena stays with the recorder
// for its next take.
func (r *MemRecorder) Corpus(st vm.Stats) *MemCorpus {
	h := r.h
	h.Events = uint64(len(r.events))
	h.Branches = st.Branches
	h.Instrs = st.Instrs
	h.FinalPC = st.FinalPC
	events := append([]vm.BlockEvent(nil), r.events...)
	return &MemCorpus{Corpus: *NewCorpus(&Stream{Header: h, Events: events}, r.prog)}
}

// MemCorpus is a Corpus that only ever lived in memory: recorded by a
// MemRecorder in the same process, never encoded to the stream format. It
// is a thin embedding — the embedded Corpus (SizeBytes included) replays
// and is stored anywhere a decoded one is (Shard.Replay, Store.Admit);
// FileDigest stays zero because there is no file.
type MemCorpus struct {
	Corpus
}
