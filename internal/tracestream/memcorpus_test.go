package tracestream_test

import (
	"bytes"
	"reflect"
	"testing"
	"unsafe"

	"repro/internal/dynopt"
	"repro/internal/tracestream"
	"repro/internal/vm"
	"repro/internal/workloads"
)

// TestMemRecorderMatchesDiskRecorder pins the in-memory recording path to
// the encoded one: tapping a run with a MemRecorder must yield exactly the
// header and event sequence that Record encodes and DecodeBytes recovers —
// the memo layer's corpora are the disk format minus the round-trip.
func TestMemRecorderMatchesDiskRecorder(t *testing.T) {
	const name, scale = "gzip", 40
	prog := workloads.MustGet(name).Build(scale)

	var buf bytes.Buffer
	if _, err := tracestream.Record(prog, name, scale, vm.Config{}, &buf); err != nil {
		t.Fatal(err)
	}
	disk, err := tracestream.DecodeBytes(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}

	rec := tracestream.NewMemRecorder(prog, name, scale)
	st, err := vm.Run(prog, vm.Config{}, rec)
	if err != nil {
		t.Fatal(err)
	}
	mem := rec.Corpus(st)

	if got, want := mem.Stream.Header, disk.Header; got != want {
		t.Errorf("in-memory header %+v, decoded header %+v", got, want)
	}
	if !reflect.DeepEqual(mem.Stream.Events, disk.Events) {
		t.Errorf("in-memory events diverge from decoded events (%d vs %d)",
			len(mem.Stream.Events), len(disk.Events))
	}
	if mem.Prog != prog {
		t.Error("corpus does not carry the recorded program")
	}
	// The budget charge covers everything the recording holds: the arena
	// by capacity plus the edge table and repeat list every replay borrows.
	edges := mem.Edges()
	if edges == nil {
		t.Fatal("recorded corpus carries no edge table")
	}
	arena := int64(cap(mem.Stream.Events)) * int64(unsafe.Sizeof(vm.BlockEvent{}))
	reps := int64(cap(mem.Repeats())) * int64(unsafe.Sizeof(dynopt.Repeat{}))
	if edges.SizeBytes() <= 0 || reps <= 0 || mem.SizeBytes() != arena+edges.SizeBytes()+reps {
		t.Errorf("SizeBytes %d, want arena %d + edge table %d + repeat list %d",
			mem.SizeBytes(), arena, edges.SizeBytes(), reps)
	}
}
