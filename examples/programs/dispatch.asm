; dispatch.asm — a bytecode-interpreter shape: an indirect jump through a
; table rotates over three handlers. Run with:
;
;   go run ./cmd/regionsim -workload asm:examples/programs/dispatch.asm -selector all
;
; The hot cycle passes through the indirect jump; compare how each
; selector copes.
func main:
  movi r2, 64            ; table base
  la   r3, op0
  store [r2+0], r3
  la   r3, op1
  store [r2+1], r3
  la   r3, op2
  store [r2+2], r3
  movi r1, 6000          ; iterations
  movi r4, 0             ; rotor
fetch:
  movi r5, 3
  rem  r6, r4, r5
  add  r7, r2, r6
  load r8, [r7+0]
  jmpi r8
op0:
  addi r10, r10, 1
  jmp  next
op1:
  addi r11, r11, 2
  jmp  next
op2:
  addi r12, r12, 3
  jmp  next
next:
  addi r4, r4, 1
  addi r1, r1, -1
  bgt  r1, r0, fetch
  halt
