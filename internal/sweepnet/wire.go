// Package sweepnet distributes a sweep grid across machines. A coordinator
// partitions the grid's job-index space into contiguous ranges and hands
// them to TCP workers; each worker rebuilds its jobs locally
// (sweep.Grid.JobAt), runs them through one persistent pooled sweep.Runner
// — per-shard dynopt.Scratch, Resettable selectors, and programs built once
// per (workload, scale) spec survive across ranges — and streams batched
// binary results back. The coordinator merges the streams through the same
// bounded reorder-window sweep.OrderedSink the in-process engine uses, so
// output order is the grid enumeration regardless of worker count, timing,
// or mid-run worker failures: a dead worker's ranges are reassigned from
// their delivery watermark and the merged output is byte-identical to a
// single-process run.
//
// The wire format is a compact binary codec in the idiom of the trace-stream
// codec (internal/tracestream): append-only reusable buffers, chunked
// bounds-checked reads, length-prefixed frames, varint-packed integers,
// fixed 64-bit floats, and results batched per frame to amortize syscalls.
// Steady-state encode and decode of a result batch is allocation-free
// (TestCodecSteadyStateAllocFree). docs/SWEEPD.md specifies the protocol.
package sweepnet

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
)

// Protocol constants. A frame on the wire is a uvarint payload length
// followed by the payload; payload byte 0 is the frame type.
const (
	protoVersion = 1

	frameHello     byte = 0x01 // worker → coordinator: protocol version, shard count
	frameGrid      byte = 0x02 // coordinator → worker: the sweep grid
	frameRange     byte = 0x03 // coordinator → worker: job-index range [lo, hi)
	frameResults   byte = 0x04 // worker → coordinator: batched job results
	frameRangeDone byte = 0x05 // worker → coordinator: range [lo, hi) complete
	frameJobErr    byte = 0x06 // worker → coordinator: a job failed (fail-fast)
	frameHeartbeat byte = 0x07 // worker → coordinator: liveness
)

// maxFrame bounds accepted frame payloads; larger prefixes are treated as
// stream corruption rather than trusted as allocation sizes.
const maxFrame = 1 << 22

// errFrameTooLarge rejects an over-maxFrame payload at the writer, so the
// sender diagnoses an oversized frame (in practice: a grid whose config
// axis is too big for the one-frame grid encoding) instead of the receiver
// dropping the connection as corrupt.
var errFrameTooLarge = fmt.Errorf("sweepnet: frame payload exceeds the %d-byte frame limit", maxFrame)

// Decoder errors. Sentinels, not fmt.Errorf: decode runs on the hot path
// and malformed input must error without panicking (FuzzJobCodec).
var (
	errTruncated = errors.New("sweepnet: truncated frame payload")
	errOverflow  = errors.New("sweepnet: varint overflows 64 bits")
	errCount     = errors.New("sweepnet: element count exceeds frame size")
)

// wbuf is an append-only encode buffer, reset and reused across frames so
// steady-state encoding performs no allocation once it reaches the run's
// high-water size.
type wbuf struct {
	b []byte
}

func (w *wbuf) reset() { w.b = w.b[:0] }

//lint:hotpath per-result wire encoding (TestCodecSteadyStateAllocFree)
func (w *wbuf) putByte(v byte) { w.b = append(w.b, v) }

// putU appends an unsigned value, LEB128 7-bit groups, low group first.
//
//lint:hotpath per-result wire encoding (TestCodecSteadyStateAllocFree)
func (w *wbuf) putU(v uint64) {
	for v >= 0x80 {
		w.b = append(w.b, byte(v)|0x80)
		v >>= 7
	}
	w.b = append(w.b, byte(v))
}

// putI appends a signed value, zigzag-mapped so small magnitudes of either
// sign stay short.
//
//lint:hotpath per-result wire encoding (TestCodecSteadyStateAllocFree)
func (w *wbuf) putI(v int64) {
	w.putU(uint64(v)<<1 ^ uint64(v>>63))
}

// putF appends a float64 as its fixed 8-byte IEEE 754 image, big-endian,
// so values round-trip bit-exactly and the merged remote output stays
// byte-identical to a local run.
//
//lint:hotpath per-result wire encoding (TestCodecSteadyStateAllocFree)
func (w *wbuf) putF(v float64) {
	bits := math.Float64bits(v)
	w.b = append(w.b, byte(bits>>56), byte(bits>>48), byte(bits>>40), byte(bits>>32),
		byte(bits>>24), byte(bits>>16), byte(bits>>8), byte(bits))
}

//lint:hotpath per-result wire encoding (TestCodecSteadyStateAllocFree)
func (w *wbuf) putBool(v bool) {
	if v {
		w.putByte(1)
		return
	}
	w.putByte(0)
}

// putStr appends a length-prefixed string.
//
//lint:hotpath per-result wire encoding (TestCodecSteadyStateAllocFree)
func (w *wbuf) putStr(s string) {
	w.putU(uint64(len(s)))
	w.b = append(w.b, s...)
}

// putRaw appends pre-encoded bytes (a batched payload into a frame).
//
//lint:hotpath result-batch framing (TestCodecSteadyStateAllocFree)
func (w *wbuf) putRaw(p []byte) {
	w.b = append(w.b, p...)
}

// rbuf consumes one frame payload front to back. Every read is
// bounds-checked: running past the end returns errTruncated, oversized
// counts errCount — malformed frames must error, never panic.
type rbuf struct {
	b   []byte
	off int
}

func (r *rbuf) rem() int { return len(r.b) - r.off }

//lint:hotpath per-result wire decoding (TestCodecSteadyStateAllocFree)
func (r *rbuf) u() (uint64, error) {
	var v uint64
	var shift uint
	for {
		if r.off >= len(r.b) {
			return 0, errTruncated
		}
		c := r.b[r.off]
		r.off++
		if shift == 63 && c > 1 {
			return 0, errOverflow
		}
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return v, nil
		}
		shift += 7
		if shift > 63 {
			return 0, errOverflow
		}
	}
}

//lint:hotpath per-result wire decoding (TestCodecSteadyStateAllocFree)
func (r *rbuf) i() (int64, error) {
	u, err := r.u()
	return int64(u>>1) ^ -int64(u&1), err
}

//lint:hotpath per-result wire decoding (TestCodecSteadyStateAllocFree)
func (r *rbuf) f() (float64, error) {
	if r.rem() < 8 {
		return 0, errTruncated
	}
	bits := binary.BigEndian.Uint64(r.b[r.off:])
	r.off += 8
	return math.Float64frombits(bits), nil
}

//lint:hotpath per-result wire decoding (TestCodecSteadyStateAllocFree)
func (r *rbuf) bool() (bool, error) {
	if r.off >= len(r.b) {
		return false, errTruncated
	}
	c := r.b[r.off]
	r.off++
	if c > 1 {
		return false, fmt.Errorf("sweepnet: bool byte %#x", c)
	}
	return c == 1, nil
}

// strBytes reads a length-prefixed string, returning a view into the frame
// buffer (valid until the next frame is read).
//
//lint:hotpath per-result wire decoding (TestCodecSteadyStateAllocFree)
func (r *rbuf) strBytes() ([]byte, error) {
	n, err := r.u()
	if err != nil {
		return nil, err
	}
	if n > uint64(r.rem()) {
		return nil, errTruncated
	}
	b := r.b[r.off : r.off+int(n)]
	r.off += int(n)
	return b, nil
}

// count reads an element count and validates it against the bytes left in
// the frame, given each element's minimum encoded size — a corrupted count
// must not become an allocation size.
//
//lint:hotpath per-batch wire decoding (TestCodecSteadyStateAllocFree)
func (r *rbuf) count(minElem int) (int, error) {
	n, err := r.u()
	if err != nil {
		return 0, err
	}
	if n > uint64(r.rem())/uint64(minElem) {
		return 0, errCount
	}
	return int(n), nil
}

// frameWriter writes length-prefixed frames to one connection through a
// reused payload buffer and a bufio.Writer, so framing a batch costs no
// allocation and one syscall per flush.
type frameWriter struct {
	w       *bufio.Writer
	payload wbuf
	hdr     [binary.MaxVarintLen64]byte
}

func newFrameWriter(w io.Writer) *frameWriter {
	return &frameWriter{w: bufio.NewWriter(w)}
}

// begin starts a frame of the given type, returning the payload buffer to
// encode into.
func (fw *frameWriter) begin(t byte) *wbuf {
	fw.payload.reset()
	fw.payload.putByte(t)
	return &fw.payload
}

// end length-prefixes the pending payload and writes the frame into the
// buffered writer. A payload the reader would reject (frameReader.next caps
// at maxFrame) errors here instead of going on the wire.
//
//lint:hotpath result-batch framing (TestCodecSteadyStateAllocFree)
func (fw *frameWriter) end() error {
	if len(fw.payload.b) > maxFrame {
		return fmt.Errorf("%w (%d-byte payload)", errFrameTooLarge, len(fw.payload.b))
	}
	n := binary.PutUvarint(fw.hdr[:], uint64(len(fw.payload.b)))
	if _, err := fw.w.Write(fw.hdr[:n]); err != nil {
		return err
	}
	_, err := fw.w.Write(fw.payload.b)
	return err
}

// flush pushes buffered frames to the connection.
func (fw *frameWriter) flush() error { return fw.w.Flush() }

// frameReader reads length-prefixed frames from one connection into a
// reused buffer; the returned payload aliases it and is valid until the
// next call.
type frameReader struct {
	r   *bufio.Reader
	buf []byte
}

func newFrameReader(r io.Reader) *frameReader {
	return &frameReader{r: bufio.NewReader(r)}
}

// next reads one frame, returning its type and a payload reader.
//
//lint:hotpath result-batch deframing (TestCodecSteadyStateAllocFree)
func (fr *frameReader) next() (byte, rbuf, error) {
	n, err := binary.ReadUvarint(fr.r)
	if err != nil {
		return 0, rbuf{}, err
	}
	if n == 0 || n > maxFrame {
		return 0, rbuf{}, fmt.Errorf("sweepnet: frame payload size %d out of range", n)
	}
	if cap(fr.buf) < int(n) {
		fr.buf = make([]byte, n)
	}
	fr.buf = fr.buf[:n]
	if _, err := io.ReadFull(fr.r, fr.buf); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return 0, rbuf{}, err
	}
	return fr.buf[0], rbuf{b: fr.buf[1:]}, nil
}
