; A ring pointer chase with ALU work after every step: r1 walks the ring,
; r2 counts the steps down, r4 counts the spin loop down.
.entry main
main:
  load r1, [r1+0]
  movi r4, 10
spin:
  addi r3, r3, 1
  addi r3, r3, 1
  addi r3, r3, 1
  addi r3, r3, 1
  addi r4, r4, -1
  bne r4, r0, spin
  addi r2, r2, -1
  bne r2, r0, main
  halt
