package difftest

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/asm"
	"repro/internal/isa"
	"repro/internal/program"
	"repro/internal/vm"
	"repro/internal/workloads"
)

// vmCase is one program of the VM differential corpus, with the machine
// configuration and register presets it runs under and, for the assembled
// error programs, the error the run must end in.
type vmCase struct {
	name    string
	prog    *program.Program
	cfg     vm.Config
	regs    map[isa.Reg]int64
	wantErr error
}

// asmCases are assembled programs that between them end in every way a run
// can end: halt, a bad or negative indirect target, an indirect jump or
// call to a non-leader, call-stack overflow, return underflow, a return to
// the program end, falling off the end, and the instruction cap. The
// register-preset and memory-wrap cases exercise SetReg and negative and
// out-of-range addresses.
var asmCases = []struct {
	name    string
	src     string
	cfg     vm.Config
	regs    map[isa.Reg]int64
	wantErr error
}{
	{name: "halt", src: `
func main:
  movi r1, 40
  movi r2, 7
loop:
  mul  r3, r1, r2
  div  r4, r3, r2
  rem  r5, r3, r1
  div  r6, r1, r0
  rem  r7, r1, r0
  xor  r8, r8, r3
  shl  r9, r1, r2
  shr  r10, r9, r2
  or   r11, r11, r1
  and  r12, r11, r2
  sub  r13, r0, r1
  mov  r14, r13
  store [r1+3], r3
  load r15, [r1+3]
  addi r1, r1, -1
  bgt  r1, r0, loop
  halt`},
	{name: "calls-and-tables", src: `
  jmp main
func leaf:
  addi r20, r20, 1
  ret
func mid:
  call leaf
  la   r9, leaf
  calli r9
  ret
func main:
  movi r2, 64
  la   r3, op0
  store [r2+0], r3
  la   r3, op1
  store [r2+1], r3
  movi r1, 300
fetch:
  movi r5, 2
  rem  r6, r1, r5
  add  r7, r2, r6
  load r8, [r7+0]
  jmpi r8
op0:
  call mid
  jmp  next
op1:
  call leaf
next:
  addi r1, r1, -1
  bgt  r1, r0, fetch
  halt`},
	{name: "mem-wrap", cfg: vm.Config{MemWords: 16}, regs: map[isa.Reg]int64{1: -5, 31: 1 << 40}, src: `
  movi r3, 100
loop:
  store [r1-7], r3
  store [r31+9], r1
  load r4, [r1+21]
  add  r5, r5, r4
  addi r1, r1, 3
  addi r3, r3, -1
  bgt  r3, r0, loop
  halt`},
	{name: "err-bad-target", wantErr: vm.ErrBadTarget, src: `
  movi r1, 1000000
  jmpi r1
  halt`},
	{name: "err-negative-call-target", wantErr: vm.ErrBadTarget, src: `
  movi r1, -4
  calli r1
  halt`},
	{name: "err-preset-bad-target", wantErr: vm.ErrBadTarget, regs: map[isa.Reg]int64{7: 3}, src: `
  nop
  jmpi r7
  halt`},
	{name: "err-non-leader-jump", wantErr: vm.ErrNotLeader, src: `
  movi r1, 2
  nop
  nop
  jmpi r1
  halt`},
	{name: "err-non-leader-call", wantErr: vm.ErrNotLeader, src: `
  movi r1, 1
  nop
  calli r1
  halt`},
	{name: "err-call-depth", wantErr: vm.ErrCallDepth, src: `
func rec:
  addi r1, r1, 1
  call rec
  halt`},
	{name: "err-indirect-call-depth", wantErr: vm.ErrCallDepth, cfg: vm.Config{MaxCallDepth: 5}, src: `
func rec:
  la   r2, rec
  calli r2
  halt`},
	{name: "err-underflow", wantErr: vm.ErrUnderflow, src: `
  movi r1, 3
  ret
  halt`},
	{name: "err-return-past-end", wantErr: vm.ErrBadTarget, src: `
  jmp main
func f:
  movi r1, 9
  ret
func main:
  call f`},
	{name: "err-fall-off-end", wantErr: vm.ErrBadTarget, src: `
  movi r1, 5
loop:
  addi r1, r1, -1
  bgt  r1, r0, loop
  bgt  r1, r0, loop`},
	{name: "err-max-instrs", wantErr: vm.ErrMaxInstrs, cfg: vm.Config{MaxInstrs: 1000}, src: `
spin:
  addi r1, r1, 1
  nop
  jmp spin
  halt`},
}

// vmCorpus returns the VM differential corpus: every registered workload at
// a small scale, random structured programs, and the assembled programs.
func vmCorpus(t testing.TB) []vmCase {
	t.Helper()
	var cases []vmCase
	for _, name := range workloads.Names() {
		w, _ := workloads.Get(name)
		cases = append(cases, vmCase{name: "workload/" + name, prog: w.Build(3)})
	}
	for i := 0; i < 40; i++ {
		p := workloads.Random(workloads.GenConfig{
			Seed:       1000 + int64(i),
			Funcs:      i % 6,
			MaxDepth:   1 + i%4,
			Iters:      5 + i%40,
			Constructs: 1 + i%7,
		})
		cases = append(cases, vmCase{name: fmt.Sprintf("random/%d", i), prog: p})
	}
	for _, c := range asmCases {
		p, err := asm.Parse(c.src)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		cases = append(cases, vmCase{name: "asm/" + c.name, prog: p, cfg: c.cfg, regs: c.regs, wantErr: c.wantErr})
	}
	return cases
}

// TestDiffVM runs every corpus program on vm.Machine and on the frozen
// reference interpreter and requires the same block-event stream
// (fall-throughs included), Stats, error text, registers and memory. Each
// program must also end as written: the assembled error programs in their
// error, so the corpus keeps reaching every error path, and the rest at a
// halt. The second pass reruns each program on a machine reused through
// Load.
func TestDiffVM(t *testing.T) {
	var reused vm.Machine
	for _, c := range vmCorpus(t) {
		t.Run(c.name, func(t *testing.T) {
			m := vm.New(c.prog, c.cfg)
			if err := CompareVM(m, c.prog, c.cfg, c.regs); err != nil {
				t.Fatal(err)
			}
			reused.Load(c.prog, c.cfg)
			if err := CompareVM(&reused, c.prog, c.cfg, c.regs); err != nil {
				t.Fatalf("reused machine: %v", err)
			}
			ref := NewRefMachine(c.prog, c.cfg)
			for r, v := range c.regs {
				ref.SetReg(r, v)
			}
			if _, err := ref.Run(nil); !errors.Is(err, c.wantErr) {
				t.Fatalf("err = %v, want %v", err, c.wantErr)
			}
		})
	}
}

// budgetCorpus is the small corpus the budget-boundary test runs at every
// budget: programs whose first few thousand instructions mix straight-line
// runs of many lengths with every kind of control transfer, and short
// programs that end in an error before the budget runs out.
func budgetCorpus(t *testing.T) []vmCase {
	t.Helper()
	var cases []vmCase
	for _, w := range []struct {
		name  string
		scale int
	}{{"gcc", 10}, {"crafty", 10}, {"perlbmk", 10}, {"fig3-nested-loops", 10}, {"micro-megamorphic", 40}, {"phased", 1}} {
		cases = append(cases, vmCase{name: fmt.Sprintf("workload/%s@%d", w.name, w.scale), prog: workloads.MustGet(w.name).Build(w.scale)})
	}
	for _, c := range vmCorpus(t) {
		switch c.name {
		case "random/25", "random/39", "asm/halt", "asm/calls-and-tables", "asm/mem-wrap", "asm/err-fall-off-end",
			"asm/err-return-past-end", "asm/err-indirect-call-depth":
			cases = append(cases, c)
		}
	}
	if len(cases) != 14 {
		t.Fatalf("budget corpus has %d programs, want 14", len(cases))
	}
	return cases
}

// TestDiffVMBudget pins the instruction budget at every boundary: each
// budget-corpus program runs with MaxInstrs = k for every k in [0, 3000)
// (0 selects the default budget) and for 50 random k up to the program's
// whole run, and every run must match the reference in events, Stats,
// error text, registers and memory. A budget that ends inside a
// straight-line run must stop after exactly k instructions at the same pc.
func TestDiffVMBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	for _, c := range budgetCorpus(t) {
		t.Run(c.name, func(t *testing.T) {
			full, _ := NewRefMachine(c.prog, c.cfg).Run(nil)
			budgets := make([]uint64, 0, 3050)
			for k := uint64(0); k < 3000; k++ {
				budgets = append(budgets, k)
			}
			for i := 0; i < 50; i++ {
				budgets = append(budgets, uint64(rng.Int63n(int64(full.Instrs)+1)))
			}
			var m vm.Machine
			for _, k := range budgets {
				cfg := c.cfg
				cfg.MaxInstrs = k
				if cfg.MemWords == 0 {
					cfg.MemWords = 1 << 10
				}
				m.Load(c.prog, cfg)
				if err := CompareVM(&m, c.prog, cfg, c.regs); err != nil {
					t.Fatalf("MaxInstrs %d: %v", k, err)
				}
			}
		})
	}
}

// fuzzVMProgram decodes data into a program, four bytes per instruction:
// the opcode, then the registers (the destination over all 32, the sources
// over eight so values meet), the condition, and one byte that is both a
// small signed immediate and a direct target modulo the program length. A
// halt closes the program so it is always valid; fuzzed register values
// and stack state still reach the indirect-target, call-depth, underflow
// and budget errors.
func fuzzVMProgram(data []byte) *program.Program {
	n := len(data)/4 + 1
	ins := make([]isa.Instr, 0, n)
	for ; len(data) >= 4; data = data[4:] {
		op := isa.Opcode(data[0] % (uint8(isa.Ret) + 1))
		in := isa.Instr{
			Op:   op,
			Dst:  isa.Reg(data[1] & 31),
			SrcA: isa.Reg(data[1] >> 5),
			SrcB: isa.Reg(data[2] & 7),
			Imm:  int64(int8(data[3])),
		}
		switch op {
		case isa.Br:
			in.Cond = isa.CondEq + isa.Cond(data[2]>>3%6)
			in.Target = isa.Addr(int(data[3]) % n)
		case isa.Jmp, isa.Call:
			in.Target = isa.Addr(int(data[3]) % n)
		}
		ins = append(ins, in)
	}
	p, err := program.New(append(ins, isa.Instr{Op: isa.Halt}), nil, nil)
	if err != nil {
		panic(err)
	}
	return p
}

// FuzzVM cross-checks vm.Machine against the frozen reference on programs
// decoded from the fuzz input and on a random structured program drawn
// from seed, with a fuzzed instruction budget, call depth and memory size,
// and register presets taken from the input.
func FuzzVM(f *testing.F) {
	f.Add(int64(1), uint16(0), uint8(0), []byte{})
	f.Add(int64(2), uint16(40), uint8(3), []byte{2, 1, 0, 5, 5, 33, 0, 0xff, 18, 0, 40, 1, 1, 0, 0, 0})
	f.Add(int64(3), uint16(999), uint8(17), []byte{19, 0, 0, 2, 0, 0, 0, 0, 22, 0, 0, 0, 1, 0, 0, 0})
	f.Add(int64(4), uint16(7), uint8(200), []byte{2, 1, 0, 3, 21, 32, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0})
	f.Add(int64(5), uint16(65535), uint8(1), []byte{16, 32, 1, 0xf0, 15, 66, 0, 9, 18, 1, 41, 0})
	f.Fuzz(func(t *testing.T, seed int64, budget uint16, shape uint8, data []byte) {
		cfg := vm.Config{
			MemWords:     1 + int(shape),
			MaxInstrs:    1 + uint64(budget)%20000,
			MaxCallDepth: 1 + int(shape%24),
		}
		regs := map[isa.Reg]int64{}
		for i := 0; i+1 < len(data) && i < 16; i += 2 {
			regs[isa.Reg(data[i]&7)] = int64(int8(data[i+1]))
		}
		p := fuzzVMProgram(data)
		if err := CompareVM(vm.New(p, cfg), p, cfg, regs); err != nil {
			t.Fatalf("decoded program: %v", err)
		}
		r := workloads.Random(workloads.GenConfig{
			Seed:       seed,
			Funcs:      int(shape % 5),
			MaxDepth:   1 + int(shape/5%3),
			Iters:      2 + int(shape/15%9),
			Constructs: 1 + int(shape/135%4),
		})
		if err := CompareVM(vm.New(r, cfg), r, cfg, nil); err != nil {
			t.Fatalf("random program: %v", err)
		}
	})
}
