//go:build amd64 && !purego

// AVX2 backend for the vec primitive set and the fused column kernels.
//
// Every routine computes bit-identical results to the portable Go loops in
// vec.go / step.go; the differential tests in this package and core's
// kernel parity fuzzing pin that equivalence. Callers (the Go wrappers)
// guarantee n is a positive multiple of 16 for int16 routines and 32 for
// uint8 routines, and that gathered tables carry the documented spare
// capacity, so no tail or bounds handling appears here.
//
// Plan 9 operand order reminders (reversed from Intel syntax):
//   VPSUBSW  Yb, Ya, Yd      d = a - b
//   VPCMPGTW Yb, Ya, Yd      d = (a > b)
//   VPSHUFB  Yctl, Ysrc, Yd  d = shuffle(src, ctl)
//   VPBLENDVB Ym, Yb, Ya, Yd d = m ? b : a
//   VPACKUSDW Yb, Ya, Yd     per 128-bit lane: [a words, b words]

#include "textflag.h"

// func cpuidex(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuidex(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv0() (eax, edx uint32)
TEXT ·xgetbv0(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// ---- 16-bit lane primitives ----

// func addSat16(dst, a, b *int16, n int)
TEXT ·addSat16(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), DX
	MOVQ n+24(FP), CX
	SHLQ $1, CX
	XORQ AX, AX
loop:
	VMOVDQU (SI)(AX*1), Y0
	VPADDSW (DX)(AX*1), Y0, Y0
	VMOVDQU Y0, (DI)(AX*1)
	ADDQ $32, AX
	CMPQ AX, CX
	JLT  loop
	VZEROUPPER
	RET

// func subSatConst16(dst, a *int16, n, c int)
TEXT ·subSatConst16(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ n+16(FP), CX
	MOVQ c+24(FP), AX
	MOVQ AX, X1
	VPBROADCASTW X1, Y1
	SHLQ $1, CX
	XORQ AX, AX
loop:
	VMOVDQU  (SI)(AX*1), Y0
	VPSUBSW  Y1, Y0, Y0
	VMOVDQU  Y0, (DI)(AX*1)
	ADDQ     $32, AX
	CMPQ     AX, CX
	JLT      loop
	VZEROUPPER
	RET

// func max16(dst, a, b *int16, n int)
TEXT ·max16(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), DX
	MOVQ n+24(FP), CX
	SHLQ $1, CX
	XORQ AX, AX
loop:
	VMOVDQU (SI)(AX*1), Y0
	VPMAXSW (DX)(AX*1), Y0, Y0
	VMOVDQU Y0, (DI)(AX*1)
	ADDQ    $32, AX
	CMPQ    AX, CX
	JLT     loop
	VZEROUPPER
	RET

// func maxConst16(dst, a *int16, n, c int)
TEXT ·maxConst16(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ n+16(FP), CX
	MOVQ c+24(FP), AX
	MOVQ AX, X1
	VPBROADCASTW X1, Y1
	SHLQ $1, CX
	XORQ AX, AX
loop:
	VMOVDQU (SI)(AX*1), Y0
	VPMAXSW Y1, Y0, Y0
	VMOVDQU Y0, (DI)(AX*1)
	ADDQ    $32, AX
	CMPQ    AX, CX
	JLT     loop
	VZEROUPPER
	RET

// func maxInto16(dst, a *int16, n int)
TEXT ·maxInto16(SB), NOSPLIT, $0-24
	MOVQ dst+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ n+16(FP), CX
	SHLQ $1, CX
	XORQ AX, AX
loop:
	VMOVDQU (SI)(AX*1), Y0
	VPMAXSW (DI)(AX*1), Y0, Y0
	VMOVDQU Y0, (DI)(AX*1)
	ADDQ    $32, AX
	CMPQ    AX, CX
	JLT     loop
	VZEROUPPER
	RET

// func set1x16(dst *int16, n, c int)
TEXT ·set1x16(SB), NOSPLIT, $0-24
	MOVQ dst+0(FP), DI
	MOVQ n+8(FP), CX
	MOVQ c+16(FP), AX
	MOVQ AX, X0
	VPBROADCASTW X0, Y0
	SHLQ $1, CX
	XORQ AX, AX
loop:
	VMOVDQU Y0, (DI)(AX*1)
	ADDQ    $32, AX
	CMPQ    AX, CX
	JLT     loop
	VZEROUPPER
	RET

// func gather16(dst *int16, table *int16, idx *uint8, n int)
//
// Scalar loads: the hardware "insert sequence" form, safe for arbitrary
// caller tables (no over-read).
TEXT ·gather16(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ table+8(FP), SI
	MOVQ idx+16(FP), DX
	MOVQ n+24(FP), CX
	XORQ AX, AX
loop:
	MOVBQZX (DX)(AX*1), R8
	MOVWQZX (SI)(R8*2), R9
	MOVW    R9, (DI)(AX*2)
	INCQ    AX
	CMPQ    AX, CX
	JLT     loop
	RET

// func hmax16(a *int16, n int) int16
TEXT ·hmax16(SB), NOSPLIT, $0-18
	MOVQ a+0(FP), SI
	MOVQ n+8(FP), CX
	SHLQ $1, CX
	VMOVDQU (SI), Y0
	MOVQ $32, AX
	JMP  cond
loop:
	VPMAXSW (SI)(AX*1), Y0, Y0
	ADDQ    $32, AX
cond:
	CMPQ AX, CX
	JLT  loop
	VEXTRACTI128 $1, Y0, X1
	VPMAXSW X1, X0, X0
	VPSHUFD $0x4E, X0, X1
	VPMAXSW X1, X0, X0
	VPSHUFD $0xB1, X0, X1
	VPMAXSW X1, X0, X0
	VPSRLD  $16, X0, X1
	VPMAXSW X1, X0, X0
	MOVQ    X0, AX
	MOVW    AX, ret+16(FP)
	VZEROUPPER
	RET

// func anyGE16(a *int16, n, threshold int) bool
//
// a >= t per lane as (max(a, t) == a), ORed across chunks.
TEXT ·anyGE16(SB), NOSPLIT, $0-25
	MOVQ a+0(FP), SI
	MOVQ n+8(FP), CX
	MOVQ threshold+16(FP), AX
	MOVQ AX, X2
	VPBROADCASTW X2, Y2
	VPXOR Y3, Y3, Y3
	SHLQ  $1, CX
	XORQ  AX, AX
loop:
	VMOVDQU  (SI)(AX*1), Y0
	VPMAXSW  Y2, Y0, Y1
	VPCMPEQW Y0, Y1, Y1
	VPOR     Y1, Y3, Y3
	ADDQ     $32, AX
	CMPQ     AX, CX
	JLT      loop
	VPMOVMSKB Y3, AX
	TESTL AX, AX
	SETNE ret+24(FP)
	VZEROUPPER
	RET

// func anyGT16(a, b *int16, n int) bool
TEXT ·anyGT16(SB), NOSPLIT, $0-25
	MOVQ a+0(FP), SI
	MOVQ b+8(FP), DX
	MOVQ n+16(FP), CX
	VPXOR Y3, Y3, Y3
	SHLQ  $1, CX
	XORQ  AX, AX
loop:
	VMOVDQU  (SI)(AX*1), Y0
	VMOVDQU  (DX)(AX*1), Y1
	VPCMPGTW Y1, Y0, Y1
	VPOR     Y1, Y3, Y3
	ADDQ     $32, AX
	CMPQ     AX, CX
	JLT      loop
	VPMOVMSKB Y3, AX
	TESTL AX, AX
	SETNE ret+24(FP)
	VZEROUPPER
	RET

// ---- 8-bit lane primitives ----

// func addSatU8x(dst, a, b *uint8, n int)
TEXT ·addSatU8x(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), DX
	MOVQ n+24(FP), CX
	XORQ AX, AX
loop:
	VMOVDQU  (SI)(AX*1), Y0
	VPADDUSB (DX)(AX*1), Y0, Y0
	VMOVDQU  Y0, (DI)(AX*1)
	ADDQ     $32, AX
	CMPQ     AX, CX
	JLT      loop
	VZEROUPPER
	RET

// func subSatConstU8(dst, a *uint8, n, c int)
TEXT ·subSatConstU8(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ n+16(FP), CX
	MOVQ c+24(FP), AX
	MOVQ AX, X1
	VPBROADCASTB X1, Y1
	XORQ AX, AX
loop:
	VMOVDQU  (SI)(AX*1), Y0
	VPSUBUSB Y1, Y0, Y0
	VMOVDQU  Y0, (DI)(AX*1)
	ADDQ     $32, AX
	CMPQ     AX, CX
	JLT      loop
	VZEROUPPER
	RET

// func maxU8x(dst, a, b *uint8, n int)
TEXT ·maxU8x(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), DX
	MOVQ n+24(FP), CX
	XORQ AX, AX
loop:
	VMOVDQU (SI)(AX*1), Y0
	VPMAXUB (DX)(AX*1), Y0, Y0
	VMOVDQU Y0, (DI)(AX*1)
	ADDQ    $32, AX
	CMPQ    AX, CX
	JLT     loop
	VZEROUPPER
	RET

// func maxIntoU8x(dst, a *uint8, n int)
TEXT ·maxIntoU8x(SB), NOSPLIT, $0-24
	MOVQ dst+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ n+16(FP), CX
	XORQ AX, AX
loop:
	VMOVDQU (SI)(AX*1), Y0
	VPMAXUB (DI)(AX*1), Y0, Y0
	VMOVDQU Y0, (DI)(AX*1)
	ADDQ    $32, AX
	CMPQ    AX, CX
	JLT     loop
	VZEROUPPER
	RET

// func set1U8x(dst *uint8, n, c int)
TEXT ·set1U8x(SB), NOSPLIT, $0-24
	MOVQ dst+0(FP), DI
	MOVQ n+8(FP), CX
	MOVQ c+16(FP), AX
	MOVQ AX, X0
	VPBROADCASTB X0, Y0
	XORQ AX, AX
loop:
	VMOVDQU Y0, (DI)(AX*1)
	ADDQ    $32, AX
	CMPQ    AX, CX
	JLT     loop
	VZEROUPPER
	RET

// func gatherU8x(dst *uint8, table *uint8, idx *uint8, n int)
TEXT ·gatherU8x(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ table+8(FP), SI
	MOVQ idx+16(FP), DX
	MOVQ n+24(FP), CX
	XORQ AX, AX
loop:
	MOVBQZX (DX)(AX*1), R8
	MOVBQZX (SI)(R8*1), R9
	MOVB    R9, (DI)(AX*1)
	INCQ    AX
	CMPQ    AX, CX
	JLT     loop
	RET

// func hmaxU8(a *uint8, n int) uint8
TEXT ·hmaxU8(SB), NOSPLIT, $0-17
	MOVQ a+0(FP), SI
	MOVQ n+8(FP), CX
	VMOVDQU (SI), Y0
	MOVQ $32, AX
	JMP  cond
loop:
	VPMAXUB (SI)(AX*1), Y0, Y0
	ADDQ    $32, AX
cond:
	CMPQ AX, CX
	JLT  loop
	VEXTRACTI128 $1, Y0, X1
	VPMAXUB X1, X0, X0
	VPSHUFD $0x4E, X0, X1
	VPMAXUB X1, X0, X0
	VPSHUFD $0xB1, X0, X1
	VPMAXUB X1, X0, X0
	VPSRLD  $16, X0, X1
	VPMAXUB X1, X0, X0
	VPSRLW  $8, X0, X1
	VPMAXUB X1, X0, X0
	MOVQ    X0, AX
	MOVB    AX, ret+16(FP)
	VZEROUPPER
	RET

// func anyGEU8x(a *uint8, n, threshold int) bool
TEXT ·anyGEU8x(SB), NOSPLIT, $0-25
	MOVQ a+0(FP), SI
	MOVQ n+8(FP), CX
	MOVQ threshold+16(FP), AX
	MOVQ AX, X2
	VPBROADCASTB X2, Y2
	VPXOR Y3, Y3, Y3
	XORQ  AX, AX
loop:
	VMOVDQU  (SI)(AX*1), Y0
	VPMAXUB  Y2, Y0, Y1
	VPCMPEQB Y0, Y1, Y1
	VPOR     Y1, Y3, Y3
	ADDQ     $32, AX
	CMPQ     AX, CX
	JLT      loop
	VPMOVMSKB Y3, AX
	TESTL AX, AX
	SETNE ret+24(FP)
	VZEROUPPER
	RET

// func anyGTU8x(a, b *uint8, n int) bool
//
// No unsigned byte greater-than exists; a lane satisfies a <= b exactly
// when max(a, b) == b, so the accumulated AND of those masks is all-ones
// iff no lane of a exceeds b.
TEXT ·anyGTU8x(SB), NOSPLIT, $0-25
	MOVQ a+0(FP), SI
	MOVQ b+8(FP), DX
	MOVQ n+16(FP), CX
	VPCMPEQB Y3, Y3, Y3
	XORQ AX, AX
loop:
	VMOVDQU  (SI)(AX*1), Y0
	VMOVDQU  (DX)(AX*1), Y1
	VPMAXUB  Y1, Y0, Y2
	VPCMPEQB Y1, Y2, Y2
	VPAND    Y2, Y3, Y3
	ADDQ     $32, AX
	CMPQ     AX, CX
	JLT      loop
	VPMOVMSKB Y3, AX
	NOTL  AX
	TESTL AX, AX
	SETNE ret+24(FP)
	VZEROUPPER
	RET

// ---- fused column kernels ----

// func stepCol16SP(h, e, f, diag, maxv *int16, score *int16, seq *uint8, rows, lanes, qr, r int)
//
// Register plan per 16-lane strip: Y0 diag, Y1 F, Y2 maxv, Y3 qr, Y4 r,
// Y5 zero, Y6 H/score, Y7 up, Y8 E. DI/SI walk the h/e tile rows, R8 is
// the strip's score-table base (row selected by seq byte * row stride).
TEXT ·stepCol16SP(SB), NOSPLIT, $0-88
	MOVQ lanes+64(FP), R10
	SHLQ $1, R10              // row stride in bytes
	MOVQ qr+72(FP), AX
	MOVQ AX, X3
	VPBROADCASTW X3, Y3
	MOVQ r+80(FP), AX
	MOVQ AX, X4
	VPBROADCASTW X4, Y4
	VPXOR Y5, Y5, Y5
	XORQ  R11, R11            // strip byte offset
strip:
	MOVQ diag+24(FP), AX
	VMOVDQU (AX)(R11*1), Y0
	MOVQ f+16(FP), AX
	VMOVDQU (AX)(R11*1), Y1
	MOVQ maxv+32(FP), AX
	VMOVDQU (AX)(R11*1), Y2
	MOVQ h+0(FP), DI
	ADDQ R11, DI
	MOVQ e+8(FP), SI
	ADDQ R11, SI
	MOVQ score+40(FP), R8
	ADDQ R11, R8
	MOVQ seq+48(FP), DX
	MOVQ rows+56(FP), R9
rowloop:
	MOVBQZX (DX), BX
	INCQ    DX
	IMULQ   R10, BX
	VMOVDQU (R8)(BX*1), Y6    // score row for this query residue
	VPADDSW Y0, Y6, Y6        // diag + score, saturating
	VMOVDQU (DI), Y7          // up (previous column's H)
	VMOVDQU (SI), Y8          // E
	VPMAXSW Y8, Y6, Y6
	VPMAXSW Y1, Y6, Y6
	VPMAXSW Y5, Y6, Y6        // clamp at zero
	VPMAXSW Y6, Y2, Y2        // score tracker
	VMOVDQU Y6, (DI)
	VPSUBSW Y3, Y6, Y6        // uv = H - qr
	VPSUBSW Y4, Y8, Y8        // E - r
	VPMAXSW Y6, Y8, Y8
	VMOVDQU Y8, (SI)
	VPSUBSW Y4, Y1, Y1        // F - r
	VPMAXSW Y6, Y1, Y1
	VMOVDQA Y7, Y0            // diag carries down the column
	ADDQ    R10, DI
	ADDQ    R10, SI
	DECQ    R9
	JNZ     rowloop
	MOVQ diag+24(FP), AX
	VMOVDQU Y0, (AX)(R11*1)
	MOVQ f+16(FP), AX
	VMOVDQU Y1, (AX)(R11*1)
	MOVQ maxv+32(FP), AX
	VMOVDQU Y2, (AX)(R11*1)
	ADDQ $32, R11
	CMPQ R11, R10
	JLT  strip
	VZEROUPPER
	RET

// func stepCol16QP(h, e, f, diag, maxv *int16, qp *int16, stride int, col *uint8, rows, lanes, qr, r int)
//
// The score vector is gathered from the query-profile row with vpgatherdd
// (dword loads at word indices; the high halves are masked and the pair
// packed back to words). Y10/Y11 hold the strip's zero-extended column
// residues, Y15 the 0x0000FFFF dword mask, Y12 the per-gather mask.
// Requires one spare element past the last profile row (wrapper-checked).
TEXT ·stepCol16QP(SB), NOSPLIT, $0-96
	MOVQ lanes+72(FP), R10
	SHLQ $1, R10              // row stride in bytes
	MOVQ stride+48(FP), R12
	SHLQ $1, R12              // profile row stride in bytes
	MOVQ qr+80(FP), AX
	MOVQ AX, X3
	VPBROADCASTW X3, Y3
	MOVQ r+88(FP), AX
	MOVQ AX, X4
	VPBROADCASTW X4, Y4
	VPXOR    Y5, Y5, Y5
	VPCMPEQD Y15, Y15, Y15
	VPSRLD   $16, Y15, Y15    // 0x0000FFFF per dword
	XORQ R11, R11             // strip byte offset (state arrays)
	XORQ R13, R13             // strip byte offset (col residues)
strip:
	MOVQ col+56(FP), AX
	ADDQ R13, AX
	VPMOVZXBD (AX), Y10       // lanes 0-7 residue indices as dwords
	VPMOVZXBD 8(AX), Y11      // lanes 8-15
	MOVQ diag+24(FP), AX
	VMOVDQU (AX)(R11*1), Y0
	MOVQ f+16(FP), AX
	VMOVDQU (AX)(R11*1), Y1
	MOVQ maxv+32(FP), AX
	VMOVDQU (AX)(R11*1), Y2
	MOVQ h+0(FP), DI
	ADDQ R11, DI
	MOVQ e+8(FP), SI
	ADDQ R11, SI
	MOVQ qp+40(FP), R8
	MOVQ rows+64(FP), R9
rowloop:
	VPCMPEQD   Y12, Y12, Y12
	VPGATHERDD Y12, (R8)(Y10*2), Y13
	VPCMPEQD   Y12, Y12, Y12
	VPGATHERDD Y12, (R8)(Y11*2), Y14
	VPAND      Y15, Y13, Y13
	VPAND      Y15, Y14, Y14
	VPACKUSDW  Y14, Y13, Y6
	VPERMQ     $0xD8, Y6, Y6  // undo the per-128-lane interleave
	VPADDSW Y0, Y6, Y6
	VMOVDQU (DI), Y7
	VMOVDQU (SI), Y8
	VPMAXSW Y8, Y6, Y6
	VPMAXSW Y1, Y6, Y6
	VPMAXSW Y5, Y6, Y6
	VPMAXSW Y6, Y2, Y2
	VMOVDQU Y6, (DI)
	VPSUBSW Y3, Y6, Y6
	VPSUBSW Y4, Y8, Y8
	VPMAXSW Y6, Y8, Y8
	VMOVDQU Y8, (SI)
	VPSUBSW Y4, Y1, Y1
	VPMAXSW Y6, Y1, Y1
	VMOVDQA Y7, Y0
	ADDQ    R12, R8           // next query-profile row
	ADDQ    R10, DI
	ADDQ    R10, SI
	DECQ    R9
	JNZ     rowloop
	MOVQ diag+24(FP), AX
	VMOVDQU Y0, (AX)(R11*1)
	MOVQ f+16(FP), AX
	VMOVDQU Y1, (AX)(R11*1)
	MOVQ maxv+32(FP), AX
	VMOVDQU Y2, (AX)(R11*1)
	ADDQ $32, R11
	ADDQ $16, R13
	CMPQ R11, R10
	JLT  strip
	VZEROUPPER
	RET

// func stepCol8SP(h, e, f, diag, maxv *uint8, score *uint8, seq *uint8, rows, lanes, bias, qr, r int)
//
// The biased unsigned-byte pass: saturating add of the biased score, then
// a saturating subtract of the bias floors the cell at zero. Y9 holds the
// broadcast bias; otherwise the register plan mirrors stepCol16SP over 32
// byte lanes.
TEXT ·stepCol8SP(SB), NOSPLIT, $0-96
	MOVQ lanes+64(FP), R10    // row stride in bytes
	MOVQ bias+72(FP), AX
	MOVQ AX, X9
	VPBROADCASTB X9, Y9
	MOVQ qr+80(FP), AX
	MOVQ AX, X3
	VPBROADCASTB X3, Y3
	MOVQ r+88(FP), AX
	MOVQ AX, X4
	VPBROADCASTB X4, Y4
	XORQ R11, R11             // strip byte offset
strip:
	MOVQ diag+24(FP), AX
	VMOVDQU (AX)(R11*1), Y0
	MOVQ f+16(FP), AX
	VMOVDQU (AX)(R11*1), Y1
	MOVQ maxv+32(FP), AX
	VMOVDQU (AX)(R11*1), Y2
	MOVQ h+0(FP), DI
	ADDQ R11, DI
	MOVQ e+8(FP), SI
	ADDQ R11, SI
	MOVQ score+40(FP), R8
	ADDQ R11, R8
	MOVQ seq+48(FP), DX
	MOVQ rows+56(FP), R9
rowloop:
	MOVBQZX  (DX), BX
	INCQ     DX
	IMULQ    R10, BX
	VMOVDQU  (R8)(BX*1), Y6   // biased score row
	VPADDUSB Y0, Y6, Y6       // diag + biased score, saturating
	VPSUBUSB Y9, Y6, Y6       // remove bias, floor at zero
	VMOVDQU  (DI), Y7         // up
	VMOVDQU  (SI), Y8         // E
	VPMAXUB  Y8, Y6, Y6
	VPMAXUB  Y1, Y6, Y6
	VPMAXUB  Y6, Y2, Y2
	VMOVDQU  Y6, (DI)
	VPSUBUSB Y3, Y6, Y6       // uv = H - qr, floored
	VPSUBUSB Y4, Y8, Y8
	VPMAXUB  Y6, Y8, Y8
	VMOVDQU  Y8, (SI)
	VPSUBUSB Y4, Y1, Y1
	VPMAXUB  Y6, Y1, Y1
	VMOVDQA  Y7, Y0
	ADDQ     R10, DI
	ADDQ     R10, SI
	DECQ     R9
	JNZ      rowloop
	MOVQ diag+24(FP), AX
	VMOVDQU Y0, (AX)(R11*1)
	MOVQ f+16(FP), AX
	VMOVDQU Y1, (AX)(R11*1)
	MOVQ maxv+32(FP), AX
	VMOVDQU Y2, (AX)(R11*1)
	ADDQ $32, R11
	CMPQ R11, R10
	JLT  strip
	VZEROUPPER
	RET

// func stepCol8QP(h, e, f, diag, maxv *uint8, qp *uint8, stride int, col *uint8, rows, lanes, bias, qr, r int)
//
// Byte gather as an in-register table permute: the profile row's 32 bytes
// are loaded as two 16-byte halves broadcast to both 128-bit lanes
// (VBROADCASTI128, reading up to 32 bytes from the row start —
// wrapper-checked spare capacity), then vpshufb looks up idx in the low
// half and idx-16 in the high half (indices with the sign bit set shuffle
// to zero), and vpblendvb selects by idx > 15. Y10 idx, Y11 idx-16,
// Y12 blend mask, all strip-invariant.
TEXT ·stepCol8QP(SB), NOSPLIT, $0-104
	MOVQ lanes+72(FP), R10    // row stride in bytes
	MOVQ stride+48(FP), R12   // profile row stride in bytes
	MOVQ bias+80(FP), AX
	MOVQ AX, X9
	VPBROADCASTB X9, Y9
	MOVQ qr+88(FP), AX
	MOVQ AX, X3
	VPBROADCASTB X3, Y3
	MOVQ r+96(FP), AX
	MOVQ AX, X4
	VPBROADCASTB X4, Y4
	XORQ R11, R11             // strip byte offset
strip:
	MOVQ col+56(FP), AX
	ADDQ R11, AX
	VMOVDQU (AX), Y10         // residue indices, one byte per lane
	MOVQ $0x1010101010101010, AX
	MOVQ AX, X11
	VPBROADCASTQ X11, Y11
	VPSUBB Y11, Y10, Y11      // idx - 16 (sign bit set for idx < 16)
	MOVQ $0x0F0F0F0F0F0F0F0F, AX
	MOVQ AX, X12
	VPBROADCASTQ X12, Y12
	VPCMPGTB Y12, Y10, Y12    // idx > 15: take the high-half lookup
	MOVQ diag+24(FP), AX
	VMOVDQU (AX)(R11*1), Y0
	MOVQ f+16(FP), AX
	VMOVDQU (AX)(R11*1), Y1
	MOVQ maxv+32(FP), AX
	VMOVDQU (AX)(R11*1), Y2
	MOVQ h+0(FP), DI
	ADDQ R11, DI
	MOVQ e+8(FP), SI
	ADDQ R11, SI
	MOVQ qp+40(FP), R8
	MOVQ rows+64(FP), R9
rowloop:
	VBROADCASTI128 (R8), Y13  // profile row bytes 0-15 in both lanes
	VBROADCASTI128 16(R8), Y14 // bytes 16-31 (over-read past row end)
	VPSHUFB   Y10, Y13, Y13   // low-half lookup
	VPSHUFB   Y11, Y14, Y14   // high-half lookup
	VPBLENDVB Y12, Y14, Y13, Y6
	VPADDUSB Y0, Y6, Y6
	VPSUBUSB Y9, Y6, Y6
	VMOVDQU  (DI), Y7
	VMOVDQU  (SI), Y8
	VPMAXUB  Y8, Y6, Y6
	VPMAXUB  Y1, Y6, Y6
	VPMAXUB  Y6, Y2, Y2
	VMOVDQU  Y6, (DI)
	VPSUBUSB Y3, Y6, Y6
	VPSUBUSB Y4, Y8, Y8
	VPMAXUB  Y6, Y8, Y8
	VMOVDQU  Y8, (SI)
	VPSUBUSB Y4, Y1, Y1
	VPMAXUB  Y6, Y1, Y1
	VMOVDQA  Y7, Y0
	ADDQ     R12, R8          // next query-profile row
	ADDQ     R10, DI
	ADDQ     R10, SI
	DECQ     R9
	JNZ      rowloop
	MOVQ diag+24(FP), AX
	VMOVDQU Y0, (AX)(R11*1)
	MOVQ f+16(FP), AX
	VMOVDQU Y1, (AX)(R11*1)
	MOVQ maxv+32(FP), AX
	VMOVDQU Y2, (AX)(R11*1)
	ADDQ $32, R11
	CMPQ R11, R10
	JLT  strip
	VZEROUPPER
	RET

// func buildRows16(dst, table *int16, idx *uint8, nrows, lanes, stride int)
//
// The score-profile transposition as nrows vpgatherdd word gathers per
// strip (same dword-load/mask/pack scheme as stepCol16QP).
TEXT ·buildRows16(SB), NOSPLIT, $0-48
	MOVQ lanes+32(FP), R10
	SHLQ $1, R10              // dst row stride in bytes
	MOVQ stride+40(FP), R12
	SHLQ $1, R12              // table row stride in bytes
	VPCMPEQD Y15, Y15, Y15
	VPSRLD   $16, Y15, Y15
	XORQ R11, R11             // strip byte offset (dst)
	XORQ R13, R13             // strip byte offset (idx)
strip:
	MOVQ idx+16(FP), AX
	ADDQ R13, AX
	VPMOVZXBD (AX), Y10
	VPMOVZXBD 8(AX), Y11
	MOVQ dst+0(FP), DI
	ADDQ R11, DI
	MOVQ table+8(FP), R8
	MOVQ nrows+24(FP), R9
rowloop:
	VPCMPEQD   Y12, Y12, Y12
	VPGATHERDD Y12, (R8)(Y10*2), Y13
	VPCMPEQD   Y12, Y12, Y12
	VPGATHERDD Y12, (R8)(Y11*2), Y14
	VPAND      Y15, Y13, Y13
	VPAND      Y15, Y14, Y14
	VPACKUSDW  Y14, Y13, Y6
	VPERMQ     $0xD8, Y6, Y6
	VMOVDQU    Y6, (DI)
	ADDQ R12, R8
	ADDQ R10, DI
	DECQ R9
	JNZ  rowloop
	ADDQ $32, R11
	ADDQ $16, R13
	CMPQ R11, R10
	JLT  strip
	VZEROUPPER
	RET

// func buildRows8(dst, table, idx *uint8, nrows, lanes, stride int)
//
// The biased-byte transposition via the two-half vpshufb lookup of
// stepCol8QP.
TEXT ·buildRows8(SB), NOSPLIT, $0-48
	MOVQ lanes+32(FP), R10    // dst row stride in bytes
	MOVQ stride+40(FP), R12   // table row stride in bytes
	XORQ R11, R11             // strip byte offset
strip:
	MOVQ idx+16(FP), AX
	ADDQ R11, AX
	VMOVDQU (AX), Y10
	MOVQ $0x1010101010101010, AX
	MOVQ AX, X11
	VPBROADCASTQ X11, Y11
	VPSUBB Y11, Y10, Y11
	MOVQ $0x0F0F0F0F0F0F0F0F, AX
	MOVQ AX, X12
	VPBROADCASTQ X12, Y12
	VPCMPGTB Y12, Y10, Y12
	MOVQ dst+0(FP), DI
	ADDQ R11, DI
	MOVQ table+8(FP), R8
	MOVQ nrows+24(FP), R9
rowloop:
	VBROADCASTI128 (R8), Y13
	VBROADCASTI128 16(R8), Y14
	VPSHUFB   Y10, Y13, Y13
	VPSHUFB   Y11, Y14, Y14
	VPBLENDVB Y12, Y14, Y13, Y6
	VMOVDQU   Y6, (DI)
	ADDQ R12, R8
	ADDQ R10, DI
	DECQ R9
	JNZ  rowloop
	ADDQ $32, R11
	CMPQ R11, R10
	JLT  strip
	VZEROUPPER
	RET

// func stepStriped16(hLoad, hStore, e, maxv, prof *int16, t, gapOpen, qr, r int)
//
// One subject column of the striped single-pair kernel (see
// StepStriped16). Register plan: Y0 H, Y1 F, Y2 maxv, Y3 qr, Y4 r,
// Y5 zero, Y6 scratch, Y7 gapOpen, Y8 E, Y9 MinI16 in lane 0 only.
// SI/DI/DX/R8 walk hLoad/hStore/e/prof by the stripe byte offset AX;
// CX is t*32, the array length in bytes. The one-lane (one-word) shift
// across the 128-bit halves is VPERM2I128 (low half moved up, zeros
// below) then VPALIGNR by 14 bytes; the vacated lane 0 reads zero, the
// H boundary, and F ORs in MinI16 from Y9. Constants enter the vector
// registers through VEX-encoded VMOVQ: a legacy-SSE MOVQ after the first
// 256-bit write mixes SSE and AVX state, which measured ~300 ns per call
// on a 2-core Xeon host, ten times the column's own work at t = 9.
TEXT ·stepStriped16(SB), NOSPLIT, $0-72
	MOVQ hLoad+0(FP), SI
	MOVQ hStore+8(FP), DI
	MOVQ e+16(FP), DX
	MOVQ maxv+24(FP), BX
	MOVQ prof+32(FP), R8
	MOVQ t+40(FP), CX
	SHLQ $5, CX
	MOVQ gapOpen+48(FP), AX
	VMOVQ AX, X7
	VPBROADCASTW X7, Y7
	MOVQ qr+56(FP), AX
	VMOVQ AX, X3
	VPBROADCASTW X3, Y3
	MOVQ r+64(FP), AX
	VMOVQ AX, X4
	VPBROADCASTW X4, Y4
	VPXOR Y5, Y5, Y5
	MOVQ $0x8000, AX
	VMOVQ AX, X9              // VEX form: zeroes the rest of Y9
	VPBROADCASTW X9, Y1       // F = MinI16 in every lane
	VMOVDQU (BX), Y2
	VMOVDQU -32(SI)(CX*1), Y0 // last stripe of the previous column
	VPERM2I128 $0x08, Y0, Y0, Y6
	VPALIGNR $14, Y6, Y0, Y0  // shifted one lane up: stripe 0's diagonal
	XORQ AX, AX
main:
	VPADDSW (R8)(AX*1), Y0, Y0 // diag + score, saturating
	VMOVDQU (DX)(AX*1), Y8     // E
	VPMAXSW Y8, Y0, Y0
	VPMAXSW Y1, Y0, Y0
	VPMAXSW Y5, Y0, Y0         // clamp at zero
	VPMAXSW Y0, Y2, Y2         // score tracker
	VMOVDQU Y0, (DI)(AX*1)
	VPSUBSW Y3, Y0, Y0         // H - qr
	VPSUBSW Y4, Y8, Y8         // E - r
	VPMAXSW Y0, Y8, Y8
	VMOVDQU Y8, (DX)(AX*1)
	VPSUBSW Y4, Y1, Y1         // F - r
	VPMAXSW Y0, Y1, Y1
	VMOVDQU (SI)(AX*1), Y0     // next stripe's diagonal
	ADDQ $32, AX
	CMPQ AX, CX
	JLT  main

	MOVQ $16, R10             // lazy-F pass bound
lazy:
	VPERM2I128 $0x08, Y1, Y1, Y6
	VPALIGNR $14, Y6, Y1, Y1
	VPOR Y9, Y1, Y1           // F shifted one lane up, MinI16 into lane 0
	XORQ AX, AX
lazystripe:
	VMOVDQU (DI)(AX*1), Y0
	VPSUBSW Y7, Y0, Y6        // H - gapOpen
	VPCMPGTW Y6, Y1, Y6       // F > H - gapOpen
	VPMOVMSKB Y6, R11
	TESTL R11, R11
	JZ   done
	VPMAXSW Y1, Y0, Y0
	VPMAXSW Y0, Y2, Y2
	VMOVDQU Y0, (DI)(AX*1)
	VPSUBSW Y3, Y0, Y0        // H - qr refreshes E
	VPMAXSW (DX)(AX*1), Y0, Y0
	VMOVDQU Y0, (DX)(AX*1)
	VPSUBSW Y4, Y1, Y1
	ADDQ $32, AX
	CMPQ AX, CX
	JLT  lazystripe
	DECQ R10
	JNZ  lazy
done:
	VMOVDQU Y2, (BX)
	VZEROUPPER
	RET
