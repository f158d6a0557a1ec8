; FastFuzz minimized repro -- replayed by tests/test_fuzz_corpus.py
; fastfuzz-seed: 0
; fastfuzz-base: 0x1000
; fastfuzz-diverged: (none: a hand-written input, not a fuzz finding)
;
; disassembly of the assembled image:
;   0x1000: MOVI R1, 0
;   0x1006: MOVI R4, 625341585
;   0x100c: MOVI R5, 400
;   0x1012: MOVI R3, 4162
;   0x1018: MOVI R6, 4184
;   0x101e: ST [R6+0], R1
;   0x1022: MOV R2, R4
;   0x1024: SHL R2, 13
;   0x1027: XOR R4, R2
;   0x1029: MOV R2, R4
;   0x102b: SHR R2, 17
;   0x102e: XOR R4, R2
;   0x1030: MOV R2, R4
;   0x1032: SHR R2, 7
;   0x1035: ANDI R2, 1
;   0x103b: JNZ 0x1042
;   0x103e: STB [R3+2], R5
;   0x1042: ADDI R1, 1
;   0x1048: DEC R5
;   0x104a: JNZ 0x101e
;   0x104d: MOVI R4, 0
;   0x1053: OUT 0x40, R4
;   0x1057: HALT
;   0x1058: ... 4 NOP bytes ...

; hand-written oracle input: a hot loop storing to a data word on its
; own code page, a self-modifying store into the loop (the ADDI
; immediate), and a data-dependent branch (an xorshift bit) that keeps
; mispredicting, so rollbacks undo both kinds of store through the
; functional model's _rewind.  tests/test_fastblock.py runs it too.
.org 0x1000
main:
    MOVI R1, 0
    MOVI R4, 0x2545F491
    MOVI R5, 400
    MOVI R3, cd_site
    MOVI R6, cd_data
cd_loop:
    ST [R6+0], R1
    MOV R2, R4
    SHL R2, 13
    XOR R4, R2
    MOV R2, R4
    SHR R2, 17
    XOR R4, R2
    MOV R2, R4
    SHR R2, 7
    ANDI R2, 1
    JNZ cd_site
    STB [R3+2], R5
cd_site:
    ADDI R1, 1
    DEC R5
    JNZ cd_loop

    MOVI R4, 0
    OUT 0x40, R4
    HALT

cd_data:
    .word 0
