package vm

import (
	"fmt"
	"testing"
	"unsafe"

	"repro/internal/program"
	"repro/internal/workloads"
)

// corpus returns a diverse set of programs: every registered workload at a
// small scale plus random structured programs.
func corpus(t *testing.T) map[string]*program.Program {
	t.Helper()
	progs := map[string]*program.Program{}
	for _, name := range workloads.Names() {
		w, _ := workloads.Get(name)
		progs["workload/"+name] = w.Build(3)
	}
	for i := 0; i < 25; i++ {
		cfg := workloads.GenConfig{
			Seed:       1000 + int64(i),
			Funcs:      i % 6,
			MaxDepth:   1 + i%4,
			Iters:      5 + i%40,
			Constructs: 1 + i%7,
		}
		progs[fmt.Sprintf("random/%d", i)] = workloads.Random(cfg)
	}
	return progs
}

// blockRecorder collects the whole block stream.
type blockRecorder struct{ blocks []BlockEvent }

func (r *blockRecorder) BlockBatch(events []BlockEvent) {
	r.blocks = append(r.blocks, events...)
}

// TestBlockStreamMatchesBranchStream checks the block stream's structure
// against the program (difftest's TestDiffVM checks it event for event
// against the frozen reference interpreter): every event's Src is the
// final instruction of the block led by the preceding event's Tgt, every
// Tgt is a leader, and fall-throughs continue at the next address.
func TestBlockStreamMatchesBranchStream(t *testing.T) {
	for name, p := range corpus(t) {
		t.Run(name, func(t *testing.T) {
			rec := &blockRecorder{}
			if _, err := New(p, Config{}).Run(rec); err != nil {
				t.Fatal(err)
			}
			pos := p.Entry()
			for i, ev := range rec.blocks {
				if p.BlockEnd(pos)-1 != ev.Src {
					t.Fatalf("block event %d: src %d is not the end of block led by %d", i, ev.Src, pos)
				}
				if !p.IsBlockStart(ev.Tgt) {
					t.Fatalf("block event %d: tgt %d is not a leader", i, ev.Tgt)
				}
				if !ev.Taken && ev.Tgt != ev.Src+1 {
					t.Fatalf("block event %d: fall-through to %d from %d", i, ev.Tgt, ev.Src)
				}
				pos = ev.Tgt
			}
		})
	}
}

// TestMachineLoadReuse proves a machine re-targeted with Load behaves like a
// fresh one: run program A (dirtying memory), Load program B, and the B run
// must match a fresh machine's run of B exactly.
func TestMachineLoadReuse(t *testing.T) {
	progs := corpus(t)
	a := progs["workload/gcc"]
	b := progs["workload/mcf"]
	reused := New(a, Config{})
	if _, err := reused.Run(nil); err != nil {
		t.Fatal(err)
	}
	reused.Load(b, Config{})
	gotRec, wantRec := &recorder{}, &recorder{}
	stGot, err := reused.Run(gotRec)
	if err != nil {
		t.Fatal(err)
	}
	stWant, err := New(b, Config{}).Run(wantRec)
	if err != nil {
		t.Fatal(err)
	}
	got, want := gotRec.events, wantRec.events
	if stGot != stWant {
		t.Fatalf("stats mismatch after Load: %+v vs %+v", stGot, stWant)
	}
	if len(got) != len(want) {
		t.Fatalf("event count mismatch after Load: %d vs %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("event %d mismatch after Load: %+v vs %+v", i, got[i], want[i])
		}
	}
}

// TestPredecodeLayout pins the predecoded instruction at 24 bytes, with the
// segment length riding in what would otherwise be padding, and checks
// that every instruction's segment runs to the end of its block.
func TestPredecodeLayout(t *testing.T) {
	if size := unsafe.Sizeof(pInstr{}); size != 24 {
		t.Fatalf("pInstr is %d bytes, want 24", size)
	}
	for name, p := range corpus(t) {
		m := New(p, Config{MemWords: 1})
		for _, s := range p.BlockStarts() {
			end := p.BlockEnd(s)
			for a := s; a < end; a++ {
				if got := m.code[a].run; got != uint32(end-a) {
					t.Fatalf("%s: run at %d = %d, want %d (block %d..%d)", name, a, got, end-a, s, end)
				}
			}
		}
		if sentinel := m.code[p.Len()]; sentinel.op != opPastEnd || sentinel.run != 1 {
			t.Fatalf("%s: sentinel = %+v", name, sentinel)
		}
	}
}
