package tracestream

import (
	"bytes"
	"errors"
	"io"
	"testing"

	"repro/internal/dynopt"
	"repro/internal/vm"
	"repro/internal/workloads"
)

// recordBytes records one workload run to memory.
func recordBytes(t *testing.T, name string, scale int) ([]byte, Header) {
	t.Helper()
	p := workloads.MustGet(name).Build(scale)
	var buf bytes.Buffer
	h, err := Record(p, name, scale, vm.Config{}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), h
}

// TestRoundTripByteExact pins the canonical encoding: decoding a recording
// and re-encoding it reproduces the file byte for byte, and the decoded
// header carries the run totals.
func TestRoundTripByteExact(t *testing.T) {
	data, h := recordBytes(t, "gzip", 40)
	s, err := DecodeBytes(data)
	if err != nil {
		t.Fatal(err)
	}
	if s.Header != h {
		t.Fatalf("decoded header %+v, recorded %+v", s.Header, h)
	}
	if uint64(len(s.Events)) != h.Events {
		t.Fatalf("decoded %d events, header declares %d", len(s.Events), h.Events)
	}
	if h.Events == 0 || h.Branches == 0 || h.Branches >= h.Events {
		t.Fatalf("implausible recording: %d events, %d taken", h.Events, h.Branches)
	}
	re := Encode(s)
	if !bytes.Equal(re, data) {
		t.Fatalf("re-encoding differs: %d bytes vs %d recorded", len(re), len(data))
	}
}

// TestRecorderMatchesRecord pins that an Encoder fed by dynopt.Record, the
// interpreter-only run the memo engine records with, produces the same
// bytes as the Record helper.
func TestRecorderMatchesRecord(t *testing.T) {
	const name, scale = "fig3-nested-loops", 30
	p := workloads.MustGet(name).Build(scale)
	var enc Encoder
	st, err := dynopt.Record(p, vm.Config{}, nil, &enc)
	if err != nil {
		t.Fatal(err)
	}
	var recorded bytes.Buffer
	h := Header{Workload: name, Scale: scale, ProgramLen: p.Len(), ProgramDigest: p.Digest(),
		Instrs: st.Instrs, FinalPC: st.FinalPC}
	if _, err := enc.WriteTo(&recorded, h); err != nil {
		t.Fatal(err)
	}
	var direct bytes.Buffer
	if _, err := Record(p, name, scale, vm.Config{}, &direct); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(recorded.Bytes(), direct.Bytes()) {
		t.Fatal("encoder fed by dynopt.Record and Record helper produced different streams")
	}
}

// TestEveryPrefixTruncationErrors pins the self-describing header: because
// the event count is declared up front, every strict prefix of a valid
// stream decodes to an error, never to a silently shorter run.
func TestEveryPrefixTruncationErrors(t *testing.T) {
	data, _ := recordBytes(t, "fig2-loop-call", 20)
	for n := 0; n < len(data); n++ {
		if _, err := DecodeBytes(data[:n]); err == nil {
			t.Fatalf("prefix of %d/%d bytes decoded without error", n, len(data))
		}
	}
}

// TestDecodeRejectsTrailingBytes pins that bytes after the final declared
// event are an error, not silently ignored.
func TestDecodeRejectsTrailingBytes(t *testing.T) {
	data, _ := recordBytes(t, "fig2-loop-call", 20)
	if _, err := DecodeBytes(append(append([]byte(nil), data...), 0)); err == nil {
		t.Fatal("trailing byte decoded without error")
	}
}

// TestDecodeRejectsBadMagicAndVersion covers the header validations.
func TestDecodeRejectsBadMagicAndVersion(t *testing.T) {
	data, _ := recordBytes(t, "fig2-loop-call", 20)
	bad := append([]byte(nil), data...)
	bad[0] = 'X'
	if _, err := DecodeBytes(bad); !errors.Is(err, ErrNotStream) {
		t.Fatalf("bad magic: got %v, want ErrNotStream", err)
	}
	bad = append([]byte(nil), data...)
	bad[4] = 99 // version varint
	if _, err := DecodeBytes(bad); err == nil {
		t.Fatal("unsupported version decoded without error")
	}
}

// TestCheckProgram pins the digest guard: the right program passes, a
// different workload (and a different scale of the same workload) fails.
func TestCheckProgram(t *testing.T) {
	_, h := recordBytes(t, "gzip", 40)
	if err := h.CheckProgram(workloads.MustGet("gzip").Build(40)); err != nil {
		t.Fatalf("matching program rejected: %v", err)
	}
	if err := h.CheckProgram(workloads.MustGet("gcc").Build(40)); err == nil {
		t.Fatal("different workload's program accepted")
	}
	if err := h.CheckProgram(workloads.MustGet("gzip").Build(41)); err == nil {
		t.Fatal("different scale accepted")
	}
}

// TestReaderStreamsAndResets pins the streaming decoder: Next delivers
// exactly the header-declared events in order, io.EOF after, and a Reset
// reader re-decodes the same stream.
func TestReaderStreamsAndResets(t *testing.T) {
	data, h := recordBytes(t, "fig3-nested-loops", 30)
	want, err := DecodeBytes(data)
	if err != nil {
		t.Fatal(err)
	}
	rd, err := NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	for pass := 0; pass < 2; pass++ {
		if rd.Header() != h {
			t.Fatalf("pass %d: header %+v, want %+v", pass, rd.Header(), h)
		}
		var got []vm.BlockEvent
		buf := make([]vm.BlockEvent, 7) // deliberately tiny, off-size batches
		for {
			n, err := rd.Next(buf)
			got = append(got, buf[:n]...)
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		if len(got) != len(want.Events) {
			t.Fatalf("pass %d: streamed %d events, want %d", pass, len(got), len(want.Events))
		}
		for i := range got {
			if got[i] != want.Events[i] {
				t.Fatalf("pass %d: event %d = %+v, want %+v", pass, i, got[i], want.Events[i])
			}
		}
		if err := rd.Reset(bytes.NewReader(data)); err != nil {
			t.Fatal(err)
		}
	}
}

// TestStreamCodecAllocFree pins the zero-alloc steady state of both
// directions: a warmed Encoder encodes batches without allocating, and a
// warmed Reader (Reset between passes) streams a whole recording without
// allocating.
func TestStreamCodecAllocFree(t *testing.T) {
	data, _ := recordBytes(t, "gzip", 40)
	s, err := DecodeBytes(data)
	if err != nil {
		t.Fatal(err)
	}

	var enc Encoder
	enc.BlockBatch(s.Events) // grow the buffer to the high-water mark
	allocs := testing.AllocsPerRun(5, func() {
		enc.Reset()
		enc.BlockBatch(s.Events)
	})
	if allocs != 0 {
		t.Errorf("steady-state encode allocated %.1f times, want 0", allocs)
	}

	src := &byteSource{b: data}
	rd, err := NewReader(src)
	if err != nil {
		t.Fatal(err)
	}
	batch := make([]vm.BlockEvent, feedBatch)
	drain := func() {
		for {
			_, err := rd.Next(batch)
			if err == io.EOF {
				return
			}
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	drain() // warm-up pass
	// Reset's header decode allocates the workload-name string; the pin is
	// on the payload loop, by far the dominant cost.
	resetAllocs := testing.AllocsPerRun(5, func() {
		src.off = 0
		if err := rd.Reset(src); err != nil {
			t.Fatal(err)
		}
	})
	allocs = testing.AllocsPerRun(5, func() {
		src.off = 0
		if err := rd.Reset(src); err != nil {
			t.Fatal(err)
		}
		drain()
	})
	if allocs > resetAllocs {
		t.Errorf("steady-state decode allocated %.1f times beyond the %.1f header allocations, want 0",
			allocs-resetAllocs, resetAllocs)
	}
}
