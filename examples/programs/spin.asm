; spin.asm — a minimal hot loop with a helper call, runnable with:
;
;   go run ./cmd/traceviz -workload asm:examples/programs/spin.asm -selector lei
;
; The helper sits below main, so the call is a backward branch: NET cannot
; span the loop cycle (paper Figure 2), LEI can.
  jmp main

func helper:
  add  r20, r20, r21
  xor  r21, r21, r20
  ret

func main:
  movi r1, 5000
loop:
  addi r2, r2, 3
  call helper
  addi r1, r1, -1
  bgt  r1, r0, loop
  halt
