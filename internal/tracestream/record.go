package tracestream

import (
	"fmt"
	"io"

	"repro/internal/program"
	"repro/internal/vm"
)

// Record interprets p once under cfg, encoding its block-event stream as it
// executes, and writes the stream to w labeled with the workload name and
// scale that built p (a replayer rebuilds the program from these; the
// digest check catches mislabeling). It returns the completed header.
func Record(p *program.Program, workload string, scale int, cfg vm.Config, w io.Writer) (Header, error) {
	var enc Encoder
	st, err := vm.Run(p, cfg, &enc)
	if err != nil {
		return Header{}, fmt.Errorf("tracestream: recording %s: %w", workload, err)
	}
	h := Header{
		Workload:      workload,
		Scale:         scale,
		ProgramLen:    p.Len(),
		ProgramDigest: p.Digest(),
		Events:        enc.events,
		Branches:      enc.branches,
		Instrs:        st.Instrs,
		FinalPC:       st.FinalPC,
	}
	if _, err := enc.WriteTo(w, h); err != nil {
		return Header{}, err
	}
	return h, nil
}
