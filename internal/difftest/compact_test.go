package difftest

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/codecache"
	"repro/internal/isa"
	"repro/internal/program"
	"repro/internal/workloads"
)

// These tests pin the frozen Figure 14 codec (refcombine.go), the one
// executable encoder and decoder of observed traces: the production
// Combiner stores recorded block lists and only the codec's byte length and
// closing transfer, and is checked against this codec by the combiner
// diffs.

// walkTrace follows program control flow from head, making pseudo-random
// decisions at conditionals and choosing pseudo-random leaders at indirect
// branches, recording blocks and branch outcomes exactly as a trace
// recorder would. The path has unique blocks and ends either after a taken
// branch or at a block whose last instruction falls through (both real
// trace endings), so it is a valid input for the Figure 14 encoding.
func walkTrace(rng *rand.Rand, p *program.Program, head isa.Addr, maxBlocks int) (blocks []codecache.BlockSpec, outcomes []refObsBranch, lastAddr isa.Addr) {
	leaders := p.BlockStarts()
	seen := map[isa.Addr]bool{}
	cur := head
	for len(blocks) < maxBlocks {
		if seen[cur] {
			break
		}
		seen[cur] = true
		n := p.BlockLen(cur)
		blocks = append(blocks, codecache.BlockSpec{Start: cur, Len: n})
		lastAddr = cur + isa.Addr(n) - 1
		last := p.At(lastAddr)
		if len(blocks) == maxBlocks {
			// Force an ending that does not extend the path: if the block
			// ends with a conditional, record a not-taken outcome.
			if last.IsConditional() {
				outcomes = append(outcomes, refObsBranch{addr: lastAddr, taken: false})
			}
			break
		}
		switch {
		case last.Op == isa.Halt:
			return blocks, outcomes, lastAddr
		case last.Op == isa.Br:
			if rng.Intn(2) == 0 {
				outcomes = append(outcomes, refObsBranch{addr: lastAddr, taken: false})
				cur = lastAddr + 1
			} else {
				outcomes = append(outcomes, refObsBranch{addr: lastAddr, taken: true, target: last.Target})
				cur = last.Target
				if seen[cur] {
					return blocks, outcomes, lastAddr
				}
			}
		case last.Op == isa.Jmp || last.Op == isa.Call:
			outcomes = append(outcomes, refObsBranch{addr: lastAddr, taken: true, target: last.Target})
			cur = last.Target
			if seen[cur] {
				return blocks, outcomes, lastAddr
			}
		case last.IsIndirect():
			tgt := leaders[rng.Intn(len(leaders))]
			outcomes = append(outcomes, refObsBranch{addr: lastAddr, taken: true, indirect: true, target: tgt})
			cur = tgt
			if seen[cur] {
				return blocks, outcomes, lastAddr
			}
		default:
			// Pure fall-through into the next leader.
			cur = lastAddr + 1
		}
	}
	return blocks, outcomes, lastAddr
}

func sameBlocks(a, b []codecache.BlockSpec) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestCompactRoundTripRandomWalks(t *testing.T) {
	progs := []*program.Program{
		workloads.MustGet("gcc").Build(1),
		workloads.MustGet("perlbmk").Build(1),
		workloads.MustGet("vortex").Build(1),
		workloads.Random(workloads.GenConfig{Seed: 7, Funcs: 4}),
	}
	check := func(seed int64, progIdx uint8, headIdx uint16, size uint8) bool {
		p := progs[int(progIdx)%len(progs)]
		leaders := p.BlockStarts()
		head := leaders[int(headIdx)%len(leaders)]
		rng := rand.New(rand.NewSource(seed))
		maxBlocks := 1 + int(size)%24
		blocks, outcomes, lastAddr := walkTrace(rng, p, head, maxBlocks)
		if len(blocks) == 0 {
			return true
		}
		ct := refEncodeTrace(outcomes, lastAddr)
		// Figure 14 budget: two bits per branch, refAddrBits extra per taken
		// indirect, and a 2-bit end marker plus a refAddrBits end address.
		wantBits := 2 + refAddrBits
		for _, o := range outcomes {
			wantBits += 2
			if o.indirect && o.taken {
				wantBits += refAddrBits
			}
		}
		if ct.bits.n != wantBits || ct.Bytes() != (wantBits+7)/8 {
			t.Logf("encoding size: %d bits / %d bytes, want %d bits / %d bytes (outcomes=%+v)",
				ct.bits.n, ct.Bytes(), wantBits, (wantBits+7)/8, outcomes)
			return false
		}
		got, closing, hasClosing, err := ct.Decode(p, head)
		if err != nil {
			t.Logf("decode error: %v (head=%d blocks=%v outcomes=%+v last=%d)",
				err, head, blocks, outcomes, lastAddr)
			return false
		}
		if !sameBlocks(got, blocks) {
			t.Logf("decode mismatch: got %v want %v (outcomes=%+v last=%d)",
				got, blocks, outcomes, lastAddr)
			return false
		}
		// When the path's final instruction is a taken branch, the decoder
		// must surface the closing transfer and its target.
		wantClosing := len(outcomes) > 0 && outcomes[len(outcomes)-1].taken &&
			outcomes[len(outcomes)-1].addr == lastAddr
		if hasClosing != wantClosing {
			t.Logf("closing = %v, want %v (outcomes=%+v)", hasClosing, wantClosing, outcomes)
			return false
		}
		if hasClosing && closing != outcomes[len(outcomes)-1].target {
			t.Logf("closing target = %d, want %d", closing, outcomes[len(outcomes)-1].target)
			return false
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestCompactEncodingSize(t *testing.T) {
	// The representation must match Figure 14's budget: two bits per
	// branch, 32 extra bits per indirect target, and a 2-bit end marker
	// plus a 32-bit end address.
	outcomes := []refObsBranch{
		{addr: 10, taken: true, target: 20},
		{addr: 25, taken: false},
		{addr: 30, taken: true, indirect: true, target: 40},
	}
	ct := refEncodeTrace(outcomes, 45)
	wantBits := 2 + 2 + (2 + 32) + 2 + 32
	if got := ct.bits.n; got != wantBits {
		t.Errorf("bits = %d, want %d", got, wantBits)
	}
	if ct.Bytes() != (wantBits+7)/8 {
		t.Errorf("Bytes = %d", ct.Bytes())
	}
}

func TestCompactDecodeSingleBlock(t *testing.T) {
	b := program.NewBuilder()
	b.MovImm(1, 5)
	b.Label("l")
	b.AddImm(1, 1, -1)
	b.Br(isa.CondGt, 1, 0, "l")
	b.Halt()
	p := b.MustBuild()
	// A trace that is only the entry block [0..0]: no branch outcomes.
	ct := refEncodeTrace(nil, 0)
	got, _, _, err := ct.Decode(p, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Start != 0 || got[0].Len != 1 {
		t.Errorf("got %v", got)
	}
}

func TestCompactDecodeCyclic(t *testing.T) {
	// Cyclic trace: block [1..3] ending with a taken backward branch to
	// itself. The end address equals the final branch; the decoder must
	// not fabricate a second pass over the body.
	b := program.NewBuilder()
	b.MovImm(1, 5)
	b.Label("l")
	b.AddImm(1, 1, -1)
	b.Nop()
	b.Br(isa.CondGt, 1, 0, "l")
	b.Halt()
	p := b.MustBuild()
	outcomes := []refObsBranch{{addr: 3, taken: true, target: 1}}
	ct := refEncodeTrace(outcomes, 3)
	got, closing, hasClosing, err := ct.Decode(p, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Start != 1 || got[0].Len != 3 {
		t.Errorf("got %v", got)
	}
	if !hasClosing || closing != 1 {
		t.Errorf("closing = %d, %v; want 1, true", closing, hasClosing)
	}
}

func TestCompactDecodeErrors(t *testing.T) {
	b := program.NewBuilder()
	b.MovImm(1, 5)
	b.Label("l")
	b.AddImm(1, 1, -1)
	b.Br(isa.CondGt, 1, 0, "l")
	b.Halt()
	p := b.MustBuild()

	t.Run("truncated", func(t *testing.T) {
		var bs refBitString
		bs.append2(refSymTaken) // taken symbol then nothing
		if _, _, _, err := (refCompactTrace{bits: bs}).Decode(p, 0); err == nil {
			t.Error("expected truncation error")
		}
	})
	t.Run("not-taken at unconditional", func(t *testing.T) {
		// Head 0 -> first branch encountered is the conditional at 2, so
		// put a taken symbol there leading to 1, then a not-taken at the
		// same conditional again, then claim an end inside dead space.
		var bs refBitString
		bs.append2(refSymNotTaken)
		bs.append2(refSymEnd)
		bs.appendAddr(99) // end address far outside any walked segment
		if _, _, _, err := (refCompactTrace{bits: bs}).Decode(p, 0); err == nil {
			t.Error("expected out-of-segment end error")
		}
	})
	t.Run("indirect symbol at direct branch", func(t *testing.T) {
		var bs refBitString
		bs.append2(refSymIndirect)
		bs.appendAddr(0)
		if _, _, _, err := (refCompactTrace{bits: bs}).Decode(p, 0); err == nil {
			t.Error("expected indirect-at-direct error")
		}
	})
}

// FuzzCompactDecode: arbitrary bitstrings must never panic the Figure 14
// decoder — it either reconstructs a block path or reports an error.
func FuzzCompactDecode(f *testing.F) {
	progs := []*program.Program{
		workloads.MustGet("gcc").Build(1),
		workloads.MustGet("mcf").Build(1),
		workloads.Random(workloads.GenConfig{Seed: 3, Funcs: 3}),
	}
	// Seed with a genuine encoding.
	ct := refEncodeTrace([]refObsBranch{{addr: 5, taken: false}}, 5)
	f.Add(ct.bits.data, uint8(ct.bits.n%8), uint16(0), uint8(0))
	f.Add([]byte{0x00}, uint8(0), uint16(3), uint8(1))
	f.Add([]byte{0xFF, 0x00, 0x12, 0x34}, uint8(3), uint16(9), uint8(2))
	f.Fuzz(func(t *testing.T, data []byte, spareBits uint8, headIdx uint16, progIdx uint8) {
		p := progs[int(progIdx)%len(progs)]
		leaders := p.BlockStarts()
		head := leaders[int(headIdx)%len(leaders)]
		n := len(data)*8 - int(spareBits%8)
		if n < 0 {
			n = 0
		}
		ct := refCompactTrace{bits: refBitString{data: data, n: n}}
		blocks, _, _, err := ct.Decode(p, head)
		if err != nil {
			return
		}
		// Anything accepted must be a plausible block path starting at head.
		if len(blocks) == 0 || blocks[0].Start != head {
			t.Fatalf("decode accepted a path not starting at head: %v", blocks)
		}
		for _, b := range blocks {
			if !p.IsBlockStart(b.Start) || p.BlockLen(b.Start) != b.Len {
				t.Fatalf("decode produced a non-block: %+v", b)
			}
		}
	})
}
