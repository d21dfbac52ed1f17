; A bare ring pointer chase: r1 walks the ring, r2 counts the steps down.
.entry main
main:
  load r1, [r1+0]
  addi r3, r3, 1
  addi r2, r2, -1
  bne r2, r0, main
  halt
