package tracestream

import (
	"fmt"
	"io"

	"repro/internal/program"
	"repro/internal/vm"
)

// Recorder captures a program's block-event stream as it executes. It
// implements vm.BlockSink, so it can be passed directly to vm.Machine.Run —
// or tapped alongside a live simulation via dynopt's Config.Tap, recording
// the stream in the same run that produces the report. Events accumulate in
// the encoder's reusable buffer; Finish stamps the run totals into the
// header and writes the complete stream.
type Recorder struct {
	enc Encoder
	//lint:keep identifies the program being recorded; Reset starts a fresh take of the same run
	h Header
}

// NewRecorder prepares a recording of program p, labeled with the workload
// name and scale that built it (a replayer rebuilds the program from these;
// the digest check catches mislabeling).
func NewRecorder(p *program.Program, workload string, scale int) *Recorder {
	return &Recorder{h: Header{
		Workload:      workload,
		Scale:         scale,
		ProgramLen:    p.Len(),
		ProgramDigest: p.Digest(),
	}}
}

// Reset discards buffered events for a fresh recording of the same program.
func (r *Recorder) Reset() { r.enc.Reset() }

// BlockBatch implements vm.BlockSink, encoding the batch.
//
//lint:hotpath recording rides the live-run event path
func (r *Recorder) BlockBatch(events []vm.BlockEvent) {
	r.enc.AddBatch(events)
}

// Finish completes the recording with the run's stats and writes the stream
// to w.
func (r *Recorder) Finish(w io.Writer, st vm.Stats) error {
	h := r.h
	h.Instrs = st.Instrs
	h.FinalPC = st.FinalPC
	_, err := r.enc.WriteTo(w, h)
	return err
}

// Record interprets p once under cfg and writes its block-event stream to
// w, returning the completed header.
func Record(p *program.Program, workload string, scale int, cfg vm.Config, w io.Writer) (Header, error) {
	rec := NewRecorder(p, workload, scale)
	st, err := vm.Run(p, cfg, rec)
	if err != nil {
		return Header{}, fmt.Errorf("tracestream: recording %s: %w", workload, err)
	}
	h := rec.h
	h.Instrs = st.Instrs
	h.FinalPC = st.FinalPC
	h.Events = rec.enc.events
	h.Branches = rec.enc.branches
	if _, err := rec.enc.WriteTo(w, h); err != nil {
		return Header{}, err
	}
	return h, nil
}
