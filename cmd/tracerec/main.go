// Command tracerec records, inspects, and verifies branch-event stream
// files (internal/tracestream) — the trace corpora that cmd/sweep and
// sweepd accept as `trace:<path>` workloads:
//
//	tracerec -workload gzip -scale 40 -out gzip.trace   # record a run
//	tracerec -info gzip.trace                           # print the header
//	tracerec -verify gzip.trace                         # full decode + program digest check + resident bytes
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/tracestream"
	"repro/internal/vm"
	"repro/internal/workloads"
)

func main() {
	workload := flag.String("workload", "", "registered workload to record (see regionsim -list)")
	scale := flag.Int("scale", 0, "workload scale (0 = default)")
	out := flag.String("out", "", "stream file to write")
	info := flag.String("info", "", "print the header of this stream file and exit")
	verify := flag.String("verify", "", "fully decode this stream file, rebuild its program, and check the digest")
	flag.Parse()

	switch {
	case *info != "":
		h, err := readHeader(*info)
		if err != nil {
			fail(err)
		}
		printHeader(h)
	case *verify != "":
		// A throwaway store: nothing needs to stay resident after the check.
		c, err := tracestream.NewStore(0).LoadRef(tracestream.RefPrefix + *verify)
		if err != nil {
			fail(err)
		}
		printHeader(c.Header())
		fmt.Printf("verified: %d events decode cleanly, program digest matches (file digest %#016x)\n",
			len(c.Stream.Events), c.FileDigest)
		// The figure sweepd -memobudget is compared against.
		fmt.Printf("resident:  %d bytes decoded (event arena + edge table)\n", c.SizeBytes())
	case *workload != "":
		if *out == "" {
			fail(fmt.Errorf("-workload needs -out FILE"))
		}
		w, ok := workloads.Get(*workload)
		if !ok {
			fail(fmt.Errorf("unknown workload %q", *workload))
		}
		prog := w.Build(*scale)
		f, err := os.Create(*out)
		if err != nil {
			fail(err)
		}
		h, err := tracestream.Record(prog, *workload, *scale, vm.Config{}, f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fail(err)
		}
		fmt.Printf("recorded %s to %s: %d instructions, %d events (%d taken)\n",
			*workload, *out, h.Instrs, h.Events, h.Branches)
	default:
		flag.Usage()
		os.Exit(2)
	}
}

// readHeader decodes only the stream header, without pulling the payload.
func readHeader(path string) (tracestream.Header, error) {
	f, err := os.Open(path)
	if err != nil {
		return tracestream.Header{}, err
	}
	defer f.Close()
	rd, err := tracestream.NewReader(f)
	if err != nil {
		return tracestream.Header{}, err
	}
	return rd.Header(), nil
}

func printHeader(h tracestream.Header) {
	fmt.Printf("workload:  %s (scale %d)\n", h.Workload, h.Scale)
	fmt.Printf("program:   %d instructions, digest %#016x\n", h.ProgramLen, h.ProgramDigest)
	fmt.Printf("run:       %d instructions, %d events (%d taken), final PC %d\n",
		h.Instrs, h.Events, h.Branches, h.FinalPC)
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "tracerec:", err)
	os.Exit(1)
}
