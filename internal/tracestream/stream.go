// Package tracestream makes recorded branch-event streams a first-class
// workload: the compact on-disk format, a recorder that taps the VM's
// block-event stream (vm.BlockSink), a streaming replayer that feeds the
// dynopt simulator without re-interpreting the program, and a digest-keyed
// artifact cache so repeated sweeps over the same corpus skip decoding
// entirely.
//
// The selectors only ever consume block-boundary events — DESIGN.md's core
// substitution argument. dynopt has one run path whatever the event source
// (a live machine, a decoded slice, or Reader.Feed), so a recording
// replays to a metrics.Report byte-identical to the live VM run while
// skipping dispatch, arithmetic, and memory simulation altogether
// (TestReplayMatchesLive pins this for every registered workload under all
// five selectors).
//
// Encoding, in the idiom of the sweepnet wire codec: a self-describing
// header (workload name and scale, program length and content digest,
// event/branch/instruction counts, final PC), then one varint-packed record
// per block event. Each record packs the zigzag source-address delta with a
// 3-bit tag (0 = fall-through, kind+1 = taken) into one varint; taken events
// append the zigzag target delta, while fall-through targets are implied
// (Tgt = Src+1). Loop-heavy streams repeat small deltas, so hot events cost
// one or two bytes. Steady-state encode and decode are allocation-free
// (TestStreamCodecAllocFree) and the decoder never panics or trusts a
// corrupt count as an allocation size (FuzzStreamDecode, every-prefix
// truncation errors).
package tracestream

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"repro/internal/isa"
	"repro/internal/program"
	"repro/internal/vm"
)

// magic identifies a branch-event stream file ("region branch stream").
var magic = [4]byte{'r', 'b', 's', '1'}

// formatVersion is bumped on incompatible encoding changes.
const formatVersion = 1

// maxKind bounds the taken-branch kind accepted by the decoder (vm's six
// BranchKind values).
const maxKind = uint64(vm.KindReturn)

// Decoder errors. Sentinels, not fmt.Errorf: decode runs on the replay hot
// path and malformed input must error without panicking (FuzzStreamDecode).
var (
	// ErrTruncated reports a stream that ends before its header-declared
	// event count is reached (every strict prefix of a valid stream).
	ErrTruncated = errors.New("tracestream: truncated stream")
	// ErrNotStream reports a missing or wrong magic number.
	ErrNotStream = errors.New("tracestream: not a branch-event stream")
)

// Header is the self-describing preamble of a recorded stream. It names the
// workload that produced the stream (so sweep workers can rebuild the
// program from the registry), pins the exact program via length and content
// digest, and carries the run totals the replayer needs to finish a
// simulation without the VM: the event and taken-branch counts, the
// executed-instruction count, and the final halt address.
type Header struct {
	// Workload is the registered workload name (or a free-form program
	// identifier for streams recorded outside the registry).
	Workload string
	// Scale is the workload scale the program was built at.
	Scale int
	// ProgramLen is the recorded program's instruction count.
	ProgramLen int
	// ProgramDigest is program.Digest() of the recorded program.
	ProgramDigest uint64
	// Events is the number of block events in the stream.
	Events uint64
	// Branches is the number of taken-branch events.
	Branches uint64
	// Instrs is the total executed instruction count of the recorded run.
	Instrs uint64
	// FinalPC is the halt address that ended the recorded run.
	FinalPC isa.Addr
}

// CheckProgram reports an error when p is not the program the stream was
// recorded from.
func (h *Header) CheckProgram(p *program.Program) error {
	if p.Len() != h.ProgramLen {
		return fmt.Errorf("tracestream: stream is for a %d-instruction program, got %d",
			h.ProgramLen, p.Len())
	}
	if d := p.Digest(); d != h.ProgramDigest {
		return fmt.Errorf("tracestream: program digest %#x does not match recorded %#x",
			d, h.ProgramDigest)
	}
	return nil
}

// Stream is a fully decoded in-memory recording: the corpus form a Store
// holds so repeated jobs replay pre-decoded events.
type Stream struct {
	Header Header
	Events []vm.BlockEvent
}

// zz zigzag-maps a signed delta so small magnitudes of either sign encode
// short.
func zz(v int64) uint64 { return uint64(v)<<1 ^ uint64(v>>63) }

// unzz inverts zz.
func unzz(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// Encoder packs block events into the on-disk payload through a grow-only
// reusable buffer: once the buffer reaches a run's high-water size, adding
// batches allocates nothing.
type Encoder struct {
	buf              []byte
	prevSrc, prevTgt int64
	events           uint64
	branches         uint64
}

// Reset discards buffered events for a fresh recording, keeping the buffer.
func (e *Encoder) Reset() {
	e.buf = e.buf[:0]
	e.prevSrc, e.prevTgt = 0, 0
	e.events, e.branches = 0, 0
}

// putU appends an unsigned value, LEB128 7-bit groups, low group first.
//
//lint:hotpath per-event stream encoding (TestStreamCodecAllocFree)
func (e *Encoder) putU(v uint64) {
	for v >= 0x80 {
		e.buf = append(e.buf, byte(v)|0x80)
		v >>= 7
	}
	e.buf = append(e.buf, byte(v))
}

// BlockBatch implements vm.BlockSink, encoding a batch of block events in
// order. An Encoder can therefore take a program's events straight from
// vm.Machine.Run (Record does).
//
//lint:hotpath per-batch stream encoding (TestStreamCodecAllocFree)
func (e *Encoder) BlockBatch(events []vm.BlockEvent) {
	for i := range events {
		ev := &events[i]
		tag := uint64(0)
		if ev.Taken {
			tag = uint64(ev.Kind) + 1
		}
		e.putU(zz(int64(ev.Src)-e.prevSrc)<<3 | tag)
		if ev.Taken {
			e.putU(zz(int64(ev.Tgt) - e.prevTgt))
			e.branches++
		}
		e.prevSrc, e.prevTgt = int64(ev.Src), int64(ev.Tgt)
		e.events++
	}
}

// Events returns the number of events encoded since the last Reset.
func (e *Encoder) Events() uint64 { return e.events }

// appendHeader encodes h. The payload is buffered in memory until the
// recording finishes, so the header's counts are final by the time anything
// hits the writer and no backpatching (or io.Seeker) is ever needed.
func appendHeader(dst []byte, h *Header) []byte {
	dst = append(dst, magic[:]...)
	dst = binary.AppendUvarint(dst, formatVersion)
	dst = binary.AppendUvarint(dst, uint64(len(h.Workload)))
	dst = append(dst, h.Workload...)
	dst = binary.AppendVarint(dst, int64(h.Scale))
	dst = binary.AppendUvarint(dst, uint64(h.ProgramLen))
	dst = binary.BigEndian.AppendUint64(dst, h.ProgramDigest)
	dst = binary.AppendUvarint(dst, h.Events)
	dst = binary.AppendUvarint(dst, h.Branches)
	dst = binary.AppendUvarint(dst, h.Instrs)
	dst = binary.AppendUvarint(dst, uint64(h.FinalPC))
	return dst
}

// WriteTo assembles the complete stream — header then payload — and writes
// it to w. The caller fills the program- and run-identifying header fields;
// the event and branch counts come from the encoder.
func (e *Encoder) WriteTo(w io.Writer, h Header) (int64, error) {
	h.Events = e.events
	h.Branches = e.branches
	hdr := appendHeader(nil, &h)
	n, err := w.Write(hdr)
	total := int64(n)
	if err != nil {
		return total, err
	}
	n, err = w.Write(e.buf)
	return total + int64(n), err
}

// Reader streams a recording front to back: the header up front, then
// events decoded batch-by-batch into caller- or internally-owned buffers,
// never materializing the whole stream. A Reader can be Reset onto a new
// source and reused; steady-state batch decoding is allocation-free.
type Reader struct {
	br               *bufio.Reader
	h                Header
	prevSrc, prevTgt int64
	read             uint64 // events decoded so far
	taken            uint64 // taken events decoded so far
	//lint:keep preallocated batch capacity; Feed overwrites before use
	batch []vm.BlockEvent
}

// NewReader wraps r and decodes the stream header.
func NewReader(r io.Reader) (*Reader, error) {
	d := &Reader{br: bufio.NewReader(r)}
	if err := d.start(); err != nil {
		return nil, err
	}
	return d, nil
}

// Reset re-targets the reader to a new stream, reusing its buffers, and
// decodes the new header. A zero Reader is ready for Reset.
func (d *Reader) Reset(r io.Reader) error {
	if d.br == nil {
		d.br = bufio.NewReader(r)
	}
	d.br.Reset(r)
	d.prevSrc, d.prevTgt = 0, 0
	d.read, d.taken = 0, 0
	d.h = Header{}
	return d.start()
}

// start decodes the header.
func (d *Reader) start() error {
	var m [4]byte
	if _, err := io.ReadFull(d.br, m[:]); err != nil {
		return fmt.Errorf("%w: %w", ErrNotStream, err)
	}
	if m != magic {
		return ErrNotStream
	}
	ver, err := binary.ReadUvarint(d.br)
	if err != nil {
		return fmt.Errorf("tracestream: reading version: %w", trunc(err))
	}
	if ver != formatVersion {
		return fmt.Errorf("tracestream: unsupported format version %d", ver)
	}
	nameLen, err := binary.ReadUvarint(d.br)
	if err != nil {
		return fmt.Errorf("tracestream: reading header: %w", trunc(err))
	}
	if nameLen > 1<<16 {
		return fmt.Errorf("tracestream: workload name length %d out of range", nameLen)
	}
	name := make([]byte, nameLen)
	if _, err := io.ReadFull(d.br, name); err != nil {
		return fmt.Errorf("tracestream: reading header: %w", trunc(err))
	}
	d.h.Workload = string(name)
	scale, err := binary.ReadVarint(d.br)
	if err != nil {
		return fmt.Errorf("tracestream: reading header: %w", trunc(err))
	}
	d.h.Scale = int(scale)
	plen, err := binary.ReadUvarint(d.br)
	if err != nil {
		return fmt.Errorf("tracestream: reading header: %w", trunc(err))
	}
	if plen > 1<<31 {
		return fmt.Errorf("tracestream: program length %d out of range", plen)
	}
	d.h.ProgramLen = int(plen)
	var dig [8]byte
	if _, err := io.ReadFull(d.br, dig[:]); err != nil {
		return fmt.Errorf("tracestream: reading header: %w", trunc(err))
	}
	d.h.ProgramDigest = binary.BigEndian.Uint64(dig[:])
	for _, dst := range []*uint64{&d.h.Events, &d.h.Branches, &d.h.Instrs} {
		if *dst, err = binary.ReadUvarint(d.br); err != nil {
			return fmt.Errorf("tracestream: reading header: %w", trunc(err))
		}
	}
	if d.h.Branches > d.h.Events {
		return fmt.Errorf("tracestream: header declares %d taken events out of %d", d.h.Branches, d.h.Events)
	}
	fpc, err := binary.ReadUvarint(d.br)
	if err != nil {
		return fmt.Errorf("tracestream: reading header: %w", trunc(err))
	}
	if fpc >= plen && !(fpc == 0 && plen == 0) {
		return fmt.Errorf("tracestream: final PC %d outside %d-instruction program", fpc, plen)
	}
	d.h.FinalPC = isa.Addr(fpc)
	return nil
}

// trunc maps io.EOF/ErrUnexpectedEOF onto the package truncation sentinel.
func trunc(err error) error {
	if err == io.EOF || err == io.ErrUnexpectedEOF {
		return ErrTruncated
	}
	return err
}

// Header returns the decoded stream header.
func (d *Reader) Header() Header { return d.h }

// Next decodes up to len(dst) events into dst, returning how many were
// filled. It returns io.EOF once the header-declared event count has been
// delivered, and ErrTruncated when the stream ends early. Every decoded
// address is validated against the header's program length, so a decoded
// event can always be fed to a simulator sized for that program.
//
//lint:hotpath per-batch stream decoding (TestStreamCodecAllocFree)
func (d *Reader) Next(dst []vm.BlockEvent) (int, error) {
	if d.read >= d.h.Events {
		return 0, io.EOF
	}
	n := 0
	limit := uint64(len(dst))
	if rem := d.h.Events - d.read; rem < limit {
		limit = rem
	}
	for uint64(n) < limit {
		v, err := binary.ReadUvarint(d.br)
		if err != nil {
			return n, trunc(err)
		}
		tag := v & 7
		if tag > maxKind+1 {
			return n, fmt.Errorf("tracestream: event tag %d out of range", tag)
		}
		src := d.prevSrc + unzz(v>>3)
		if src < 0 || src >= int64(d.h.ProgramLen) {
			return n, fmt.Errorf("tracestream: event source %d outside %d-instruction program", src, d.h.ProgramLen)
		}
		ev := vm.BlockEvent{Src: isa.Addr(src)}
		if tag != 0 {
			u, err := binary.ReadUvarint(d.br)
			if err != nil {
				return n, trunc(err)
			}
			tgt := d.prevTgt + unzz(u)
			if tgt < 0 || tgt >= int64(d.h.ProgramLen) {
				return n, fmt.Errorf("tracestream: event target %d outside %d-instruction program", tgt, d.h.ProgramLen)
			}
			ev.Tgt = isa.Addr(tgt)
			ev.Kind = vm.BranchKind(tag - 1)
			ev.Taken = true
			d.taken++
		} else {
			// Fall-through boundaries always continue at the next address.
			ev.Tgt = isa.Addr(src + 1)
		}
		d.prevSrc, d.prevTgt = int64(ev.Src), int64(ev.Tgt)
		dst[n] = ev
		n++
	}
	d.read += uint64(n)
	if d.read == d.h.Events && d.taken != d.h.Branches {
		return n, fmt.Errorf("tracestream: stream has %d taken events, header declares %d", d.taken, d.h.Branches)
	}
	return n, nil
}

// feedBatch is the delivery granularity of Feed; it matches the VM's own
// block-event batching, though report identity does not depend on it (the
// simulator processes events one by one).
const feedBatch = 1024

// Feed streams the whole recording into sink in batches, fall-throughs
// included, mirroring a live vm.Machine.Run, and returns the recorded run's
// final PC and instruction count — the exact signature dynopt.RunStream
// expects of its feed function.
//
//lint:hotpath streaming replay feed (TestStreamCodecAllocFree)
func (d *Reader) Feed(sink vm.BlockSink) (isa.Addr, uint64, error) {
	if cap(d.batch) == 0 {
		d.batch = make([]vm.BlockEvent, feedBatch)
	}
	batch := d.batch[:cap(d.batch)]
	for {
		n, err := d.Next(batch)
		if n > 0 {
			sink.BlockBatch(batch[:n])
		}
		if err == io.EOF {
			return d.h.FinalPC, d.h.Instrs, nil
		}
		if err != nil {
			return 0, 0, err
		}
	}
}

// DecodeBytes fully decodes an in-memory stream, validating that no bytes
// trail the final event. The event-count allocation is bounded by the
// payload size (every event costs at least one byte), so a corrupt header
// cannot become a huge allocation.
func DecodeBytes(data []byte) (*Stream, error) {
	r := &byteSource{b: data}
	d, err := NewReader(r)
	if err != nil {
		return nil, err
	}
	if d.h.Events > uint64(len(data)) {
		return nil, fmt.Errorf("%w: header declares %d events in %d bytes", ErrTruncated, d.h.Events, len(data))
	}
	s := &Stream{Header: d.h, Events: make([]vm.BlockEvent, d.h.Events)}
	filled := 0
	for {
		n, err := d.Next(s.Events[filled:])
		filled += n
		if err == io.EOF || (err == nil && uint64(filled) == d.h.Events) {
			break
		}
		if err != nil {
			return nil, err
		}
	}
	if rem := r.remaining() + d.br.Buffered(); rem > 0 {
		return nil, fmt.Errorf("tracestream: %d trailing bytes after final event", rem)
	}
	return s, nil
}

// Encode renders a fully materialized stream back to bytes — the inverse of
// DecodeBytes for canonical streams (round-trip property and fuzz seed
// tooling).
func Encode(s *Stream) []byte {
	var e Encoder
	e.BlockBatch(s.Events)
	h := s.Header
	h.Events = e.events
	h.Branches = e.branches
	return append(appendHeader(nil, &h), e.buf...)
}

// byteSource is a minimal io.Reader over a byte slice that exposes how many
// bytes were never consumed (bytes.Reader would work but cannot report the
// bufio.Reader's overshoot on its own).
type byteSource struct {
	b   []byte
	off int
}

func (r *byteSource) Read(p []byte) (int, error) {
	if r.off >= len(r.b) {
		return 0, io.EOF
	}
	n := copy(p, r.b[r.off:])
	r.off += n
	return n, nil
}

func (r *byteSource) remaining() int { return len(r.b) - r.off }
