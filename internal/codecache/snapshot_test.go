package codecache

import (
	"bytes"
	"strings"
	"testing"
)

func TestSnapshotRestoreRoundTrip(t *testing.T) {
	p := testProgram(t)
	c := New(p)
	if _, err := c.Insert(Spec{
		Entry:  0,
		Kind:   KindTrace,
		Blocks: []BlockSpec{blockSpec(p, 0), blockSpec(p, 4)},
		Cyclic: true,
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Insert(Spec{
		Entry:  2,
		Kind:   KindMultipath,
		Blocks: []BlockSpec{blockSpec(p, 2), blockSpec(p, 6)},
		Succs:  [][]int{{1}, {}},
	}); err != nil {
		t.Fatal(err)
	}
	snaps := c.Snapshot()
	if len(snaps) != 2 {
		t.Fatalf("snapshot = %d regions", len(snaps))
	}

	fresh := New(p)
	if err := fresh.Restore(snaps); err != nil {
		t.Fatal(err)
	}
	for _, orig := range c.Regions() {
		got, ok := fresh.Lookup(orig.Entry)
		if !ok {
			t.Fatalf("restored cache misses entry %d", orig.Entry)
		}
		if got.Kind != orig.Kind || got.Cyclic != orig.Cyclic ||
			len(got.Blocks) != len(orig.Blocks) || got.Stubs != orig.Stubs {
			t.Errorf("restored region differs: %+v vs %+v", got, orig)
		}
	}
	if fresh.TotalInstrs() != c.TotalInstrs() || fresh.TotalStubs() != c.TotalStubs() {
		t.Error("restored accounting differs")
	}
}

func TestSnapshotJSONRoundTrip(t *testing.T) {
	p := testProgram(t)
	c := New(p)
	if _, err := c.Insert(Spec{
		Entry:  0,
		Kind:   KindTrace,
		Blocks: []BlockSpec{blockSpec(p, 0)},
	}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := c.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	snaps, err := ReadSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) != 1 || snaps[0].Entry != 0 {
		t.Errorf("snaps = %+v", snaps)
	}
	fresh := New(p)
	if err := fresh.Restore(snaps); err != nil {
		t.Fatal(err)
	}
	if !fresh.HasEntry(0) {
		t.Error("restore from JSON lost the region")
	}
}

func TestRestoreRejectsMismatchedProgram(t *testing.T) {
	p := testProgram(t)
	c := New(p)
	err := c.Restore([]RegionSnapshot{{
		Entry:  0,
		Kind:   KindTrace,
		Blocks: []BlockSpec{{Start: 0, Len: 99}}, // wrong length for this program
	}})
	if err == nil || !strings.Contains(err.Error(), "restoring region 0") {
		t.Errorf("err = %v", err)
	}
}

// TestRestoreRejectsUnknownKind feeds a snapshot file whose region kind is
// neither a trace nor a multipath region: restoring it must fail cleanly
// rather than install a region the simulator cannot step.
func TestRestoreRejectsUnknownKind(t *testing.T) {
	p := testProgram(t)
	snaps, err := ReadSnapshot(strings.NewReader(
		`[{"entry": 0, "kind": 2, "blocks": [{"Start": 0, "Len": 2}], "cyclic": false}]`))
	if err != nil {
		t.Fatal(err)
	}
	c := New(p)
	err = c.Restore(snaps)
	if err == nil || !strings.Contains(err.Error(), "unknown region kind 2") {
		t.Errorf("err = %v, want unknown region kind", err)
	}
	if c.HasEntry(0) {
		t.Error("region of unknown kind was installed")
	}
}

func TestReadSnapshotBadJSON(t *testing.T) {
	if _, err := ReadSnapshot(strings.NewReader("{not json")); err == nil {
		t.Error("bad JSON accepted")
	}
}
