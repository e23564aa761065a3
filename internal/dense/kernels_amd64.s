//go:build amd64 && !purego

#include "textflag.h"

// AVX2 kernels of the axpy family (see kernels.go). Every update is a
// VMULPD followed by a VADDPD — never an FMA — so an element sees the two
// roundings of the Go loop's `y += c*x` in the same order; the 2-wide and
// scalar tails use the same pair at XMM width. Loads and stores are
// unaligned (VMOVUPD) and never touch an element at or past n.

// func axpy4AVX2(a0, a1, a2, a3 float64, x *float64, stride int, y *float64, n int)
// y[i] = (((y[i] + a0*x0[i]) + a1*x1[i]) + a2*x2[i]) + a3*x3[i] with
// x_r = x + r*stride elements, n >= 4.
TEXT ·axpy4AVX2(SB), NOSPLIT, $0-64
	VBROADCASTSD a0+0(FP), Y0
	VBROADCASTSD a1+8(FP), Y1
	VBROADCASTSD a2+16(FP), Y2
	VBROADCASTSD a3+24(FP), Y3
	MOVQ         x+32(FP), SI
	MOVQ         stride+40(FP), BX
	MOVQ         y+48(FP), DX
	MOVQ         n+56(FP), CX
	LEAQ         (SI)(BX*8), DI
	LEAQ         (DI)(BX*8), R8
	LEAQ         (R8)(BX*8), R9
	XORQ         AX, AX
	MOVQ         CX, BX
	ANDQ         $-8, BX
	JZ           axpy4four

axpy4eight:
	VMOVUPD (DX)(AX*8), Y4
	VMOVUPD 32(DX)(AX*8), Y5
	VMULPD  (SI)(AX*8), Y0, Y6
	VMULPD  32(SI)(AX*8), Y0, Y7
	VADDPD  Y6, Y4, Y4
	VADDPD  Y7, Y5, Y5
	VMULPD  (DI)(AX*8), Y1, Y6
	VMULPD  32(DI)(AX*8), Y1, Y7
	VADDPD  Y6, Y4, Y4
	VADDPD  Y7, Y5, Y5
	VMULPD  (R8)(AX*8), Y2, Y6
	VMULPD  32(R8)(AX*8), Y2, Y7
	VADDPD  Y6, Y4, Y4
	VADDPD  Y7, Y5, Y5
	VMULPD  (R9)(AX*8), Y3, Y6
	VMULPD  32(R9)(AX*8), Y3, Y7
	VADDPD  Y6, Y4, Y4
	VADDPD  Y7, Y5, Y5
	VMOVUPD Y4, (DX)(AX*8)
	VMOVUPD Y5, 32(DX)(AX*8)
	ADDQ    $8, AX
	CMPQ    AX, BX
	JLT     axpy4eight

axpy4four:
	TESTQ   $4, CX
	JZ      axpy4two
	VMOVUPD (DX)(AX*8), Y4
	VMULPD  (SI)(AX*8), Y0, Y6
	VADDPD  Y6, Y4, Y4
	VMULPD  (DI)(AX*8), Y1, Y6
	VADDPD  Y6, Y4, Y4
	VMULPD  (R8)(AX*8), Y2, Y6
	VADDPD  Y6, Y4, Y4
	VMULPD  (R9)(AX*8), Y3, Y6
	VADDPD  Y6, Y4, Y4
	VMOVUPD Y4, (DX)(AX*8)
	ADDQ    $4, AX

axpy4two:
	TESTQ   $2, CX
	JZ      axpy4one
	VMOVUPD (DX)(AX*8), X4
	VMULPD  (SI)(AX*8), X0, X6
	VADDPD  X6, X4, X4
	VMULPD  (DI)(AX*8), X1, X6
	VADDPD  X6, X4, X4
	VMULPD  (R8)(AX*8), X2, X6
	VADDPD  X6, X4, X4
	VMULPD  (R9)(AX*8), X3, X6
	VADDPD  X6, X4, X4
	VMOVUPD X4, (DX)(AX*8)
	ADDQ    $2, AX

axpy4one:
	TESTQ  $1, CX
	JZ     axpy4done
	VMOVSD (DX)(AX*8), X4
	VMULSD (SI)(AX*8), X0, X6
	VADDSD X6, X4, X4
	VMULSD (DI)(AX*8), X1, X6
	VADDSD X6, X4, X4
	VMULSD (R8)(AX*8), X2, X6
	VADDSD X6, X4, X4
	VMULSD (R9)(AX*8), X3, X6
	VADDSD X6, X4, X4
	VMOVSD X4, (DX)(AX*8)

axpy4done:
	VZEROUPPER
	RET

// func gerAVX2(c *float64, m int, x *float64, n int, y *float64)
// y[p*n+q] += c[p]*x[q] for p < m, q < n; a row whose c[p] is +0 or -0
// (what the Go loop's c[p] == 0 accepts: a NaN is not a zero) is skipped.
// m >= 1, n >= 4. DI and DX point past the whole vectors of x and of the
// current row, which AX walks from -(n&^3)*8 bytes up to zero.
TEXT ·gerAVX2(SB), NOSPLIT, $0-40
	MOVQ c+0(FP), SI
	MOVQ m+8(FP), CX
	MOVQ x+16(FP), DI
	MOVQ n+24(FP), BX
	MOVQ y+32(FP), DX
	MOVQ BX, R8
	ANDQ $-4, R8
	LEAQ (DI)(R8*8), DI
	LEAQ (DX)(R8*8), DX
	SHLQ $3, R8
	NEGQ R8             // -(n&^3)*8
	LEAQ (BX*8), R9     // row stride in bytes
	MOVQ BX, R11
	ANDQ $2, R11
	SHLQ $3, R11        // byte offset of the odd last element past DI, DX

gerrow:
	MOVQ (SI), R10
	SHLQ $1, R10 // drops the sign bit
	JZ   gernext
	VBROADCASTSD (SI), Y0
	MOVQ         R8, AX

	PCALIGN $32 // the 21-byte loop below in one 32-byte fetch block

gerfour:
	VMULPD  (DI)(AX*1), Y0, Y1
	VADDPD  (DX)(AX*1), Y1, Y1
	VMOVUPD Y1, (DX)(AX*1)
	ADDQ    $32, AX
	JNZ     gerfour
	TESTQ   $2, BX
	JZ      gerone
	VMULPD  (DI), X0, X1
	VADDPD  (DX), X1, X1
	VMOVUPD X1, (DX)

gerone:
	TESTQ  $1, BX
	JZ     gernext
	VMULSD (DI)(R11*1), X0, X1
	VADDSD (DX)(R11*1), X1, X1
	VMOVSD X1, (DX)(R11*1)

gernext:
	ADDQ $8, SI
	ADDQ R9, DX
	DECQ CX
	JNZ  gerrow
	VZEROUPPER
	RET

// func axpyAVX2(alpha float64, x, y *float64, n int)
// y[i] += alpha*x[i], n >= 4 (the caller has returned on alpha == 0).
TEXT ·axpyAVX2(SB), NOSPLIT, $0-32
	VBROADCASTSD alpha+0(FP), Y0
	MOVQ         x+8(FP), SI
	MOVQ         y+16(FP), DX
	MOVQ         n+24(FP), CX
	XORQ         AX, AX
	MOVQ         CX, BX
	ANDQ         $-16, BX
	JZ           axpyfours

axpysixteen:
	VMULPD  (SI)(AX*8), Y0, Y1
	VMULPD  32(SI)(AX*8), Y0, Y2
	VMULPD  64(SI)(AX*8), Y0, Y3
	VMULPD  96(SI)(AX*8), Y0, Y4
	VADDPD  (DX)(AX*8), Y1, Y1
	VADDPD  32(DX)(AX*8), Y2, Y2
	VADDPD  64(DX)(AX*8), Y3, Y3
	VADDPD  96(DX)(AX*8), Y4, Y4
	VMOVUPD Y1, (DX)(AX*8)
	VMOVUPD Y2, 32(DX)(AX*8)
	VMOVUPD Y3, 64(DX)(AX*8)
	VMOVUPD Y4, 96(DX)(AX*8)
	ADDQ    $16, AX
	CMPQ    AX, BX
	JLT     axpysixteen

axpyfours:
	MOVQ CX, BX
	ANDQ $-4, BX
	CMPQ AX, BX
	JGE  axpytwo

axpyfour:
	VMULPD  (SI)(AX*8), Y0, Y1
	VADDPD  (DX)(AX*8), Y1, Y1
	VMOVUPD Y1, (DX)(AX*8)
	ADDQ    $4, AX
	CMPQ    AX, BX
	JLT     axpyfour

axpytwo:
	TESTQ   $2, CX
	JZ      axpyone
	VMULPD  (SI)(AX*8), X0, X1
	VADDPD  (DX)(AX*8), X1, X1
	VMOVUPD X1, (DX)(AX*8)
	ADDQ    $2, AX

axpyone:
	TESTQ  $1, CX
	JZ     axpydone
	VMULSD (SI)(AX*8), X0, X1
	VADDSD (DX)(AX*8), X1, X1
	VMOVSD X1, (DX)(AX*8)

axpydone:
	VZEROUPPER
	RET

// ATBROW is one destination row of the AᵀB tile for one operand row:
// broadcast a[r][j], multiply b[r][k:k+8] (Y8, Y9) by it, add to p[j][k:k+8].
#define ATBROW(off, bc, t0, t1, acc0, acc1) \
	VBROADCASTSD off(SI), bc; \
	VMULPD       Y8, bc, t0; \
	VMULPD       Y9, bc, t1; \
	VADDPD       t0, acc0, acc0; \
	VADDPD       t1, acc1, acc1

// func atb4x8AVX2(a *float64, lda int, b *float64, ldb int, p *float64, ldp int, rows int)
// The AᵀB register tile: p[j][k] += a[r][j]*b[r][k] for r = 0..rows-1 in
// that order, j < 4, k < 8, with a[r] = a + r*lda elements (likewise b, p).
// The eight accumulators are loaded from p and stored back, and every row
// adds its product to each of them with one VMULPD and one VADDPD: per
// element, the operations of rows/4 Axpy4 calls in their order. rows >= 1.
TEXT ·atb4x8AVX2(SB), NOSPLIT, $0-56
	MOVQ    a+0(FP), SI
	MOVQ    lda+8(FP), R8
	MOVQ    b+16(FP), DI
	MOVQ    ldb+24(FP), R9
	MOVQ    p+32(FP), DX
	MOVQ    ldp+40(FP), R10
	MOVQ    rows+48(FP), CX
	SHLQ    $3, R8
	SHLQ    $3, R9
	LEAQ    (DX)(R10*8), R11
	LEAQ    (R11)(R10*8), R12
	LEAQ    (R12)(R10*8), R13
	VMOVUPD (DX), Y0
	VMOVUPD 32(DX), Y1
	VMOVUPD (R11), Y2
	VMOVUPD 32(R11), Y3
	VMOVUPD (R12), Y4
	VMOVUPD 32(R12), Y5
	VMOVUPD (R13), Y6
	VMOVUPD 32(R13), Y7

atbwiderow:
	VMOVUPD (DI), Y8
	VMOVUPD 32(DI), Y9
	ATBROW(0, Y10, Y11, Y12, Y0, Y1)
	ATBROW(8, Y13, Y14, Y15, Y2, Y3)
	ATBROW(16, Y10, Y11, Y12, Y4, Y5)
	ATBROW(24, Y13, Y14, Y15, Y6, Y7)
	ADDQ    R8, SI
	ADDQ    R9, DI
	DECQ    CX
	JNZ     atbwiderow
	VMOVUPD Y0, (DX)
	VMOVUPD Y1, 32(DX)
	VMOVUPD Y2, (R11)
	VMOVUPD Y3, 32(R11)
	VMOVUPD Y4, (R12)
	VMOVUPD Y5, 32(R12)
	VMOVUPD Y6, (R13)
	VMOVUPD Y7, 32(R13)
	VZEROUPPER
	RET

#define ATBHALF(off, bc, t, acc) \
	VBROADCASTSD off(SI), bc; \
	VMULPD       Y8, bc, t; \
	VADDPD       t, acc, acc

// func atb4x4AVX2(a *float64, lda int, b *float64, ldb int, p *float64, ldp int, rows int, mask *int64)
// atb4x8AVX2 on the last one to four columns of b and p: mask holds four
// lanes, all ones for a column that exists and zero past it. Loads of a
// masked-out lane give +0 and touch no memory, stores leave it alone, and
// what the lane computes in between is dropped.
TEXT ·atb4x4AVX2(SB), NOSPLIT, $0-64
	MOVQ         a+0(FP), SI
	MOVQ         lda+8(FP), R8
	MOVQ         b+16(FP), DI
	MOVQ         ldb+24(FP), R9
	MOVQ         p+32(FP), DX
	MOVQ         ldp+40(FP), R10
	MOVQ         rows+48(FP), CX
	MOVQ         mask+56(FP), AX
	VMOVDQU      (AX), Y15
	SHLQ         $3, R8
	SHLQ         $3, R9
	LEAQ         (DX)(R10*8), R11
	LEAQ         (R11)(R10*8), R12
	LEAQ         (R12)(R10*8), R13
	VMASKMOVPD   (DX), Y15, Y0
	VMASKMOVPD   (R11), Y15, Y1
	VMASKMOVPD   (R12), Y15, Y2
	VMASKMOVPD   (R13), Y15, Y3

atbhalfrow:
	VMASKMOVPD   (DI), Y15, Y8
	ATBHALF(0, Y9, Y10, Y0)
	ATBHALF(8, Y11, Y12, Y1)
	ATBHALF(16, Y9, Y10, Y2)
	ATBHALF(24, Y11, Y12, Y3)
	ADDQ         R8, SI
	ADDQ         R9, DI
	DECQ         CX
	JNZ          atbhalfrow
	VMASKMOVPD   Y0, Y15, (DX)
	VMASKMOVPD   Y1, Y15, (R11)
	VMASKMOVPD   Y2, Y15, (R12)
	VMASKMOVPD   Y3, Y15, (R13)
	VZEROUPPER
	RET

// GEMMROW is one row of the narrow-GEMM tile for one term: broadcast
// a[i][k], multiply the three vectors of b[k] by it, add to c[i].
#define GEMMROW(arow, acc0, acc1, acc2) \
	VBROADCASTSD (arow)(AX*8), Y12; \
	VMULPD       (DI), Y12, Y13; \
	VMULPD       32(DI), Y12, Y14; \
	VMULPD       64(DI), Y12, Y15; \
	VADDPD       Y13, acc0, acc0; \
	VADDPD       Y14, acc1, acc1; \
	VADDPD       Y15, acc2, acc2

// func gemm4x12AVX2(a *float64, lda int, b *float64, k int, c *float64)
// The narrow-GEMM register tile: c[i][j] = ((+0 + a[i][0]*b[0][j]) +
// a[i][1]*b[1][j]) + ... over k terms in that order, i < 4, j < 12, with
// a[i] = a + i*lda elements, b a packed k x 12 panel and c 4 x 12
// contiguous. The twelve accumulators start at +0, as a zeroed C row does,
// and take one VMULPD and one VADDPD per term: per element, the operations
// of k/4 Axpy4 calls on a zeroed row in their order. k >= 1.
TEXT ·gemm4x12AVX2(SB), NOSPLIT, $0-40
	MOVQ    a+0(FP), SI
	MOVQ    lda+8(FP), BX
	MOVQ    b+16(FP), DI
	MOVQ    k+24(FP), CX
	MOVQ    c+32(FP), DX
	LEAQ    (SI)(BX*8), R8
	LEAQ    (R8)(BX*8), R9
	LEAQ    (R9)(BX*8), R10
	VXORPD  Y0, Y0, Y0
	VXORPD  Y1, Y1, Y1
	VXORPD  Y2, Y2, Y2
	VXORPD  Y3, Y3, Y3
	VXORPD  Y4, Y4, Y4
	VXORPD  Y5, Y5, Y5
	VXORPD  Y6, Y6, Y6
	VXORPD  Y7, Y7, Y7
	VXORPD  Y8, Y8, Y8
	VXORPD  Y9, Y9, Y9
	VXORPD  Y10, Y10, Y10
	VXORPD  Y11, Y11, Y11
	XORQ    AX, AX

gemmterm:
	GEMMROW(SI, Y0, Y1, Y2)
	GEMMROW(R8, Y3, Y4, Y5)
	GEMMROW(R9, Y6, Y7, Y8)
	GEMMROW(R10, Y9, Y10, Y11)
	ADDQ    $96, DI
	INCQ    AX
	CMPQ    AX, CX
	JLT     gemmterm
	VMOVUPD Y0, (DX)
	VMOVUPD Y1, 32(DX)
	VMOVUPD Y2, 64(DX)
	VMOVUPD Y3, 96(DX)
	VMOVUPD Y4, 128(DX)
	VMOVUPD Y5, 160(DX)
	VMOVUPD Y6, 192(DX)
	VMOVUPD Y7, 224(DX)
	VMOVUPD Y8, 256(DX)
	VMOVUPD Y9, 288(DX)
	VMOVUPD Y10, 320(DX)
	VMOVUPD Y11, 352(DX)
	VZEROUPPER
	RET

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// func gatherGerAVX2(keys, ids, cols *int32, n int, vals *float64, nvals int, x *float64, xrows, r int, l *float64, lrows, m int, y *float64, mask *int64) (runs int)
// One row of the flat TTMc: for each maximal run of list positions with
// one key k = keys[p], acc = +0, then acc += vals[ids[p]] * x[cols[p]]
// over the run in order (rows of r elements; a zero value skipped), then
// y[q*r:(q+1)*r] += l[k][q] * acc for q < m (a zero element of the lead
// row l[k] skipped). Per element, the operations of Axpy calls on a
// zeroed accumulator and one Ger per run, in their order. The accumulator
// lives in registers for the whole run: the (r-1)/4 whole vectors Y0..Y2
// and a last vector of one to four elements, Y4, which the gather loads
// under the lane mask; each width has its own gather loop. The rank-one
// update writes that last vector's elements with whole, two-element and
// one-element stores, never masked ones: the next run reloads the same
// block, and a masked store is not forwarded to a later load. Returns the
// number of runs, or -1 as soon as a key, id or col is at or past its
// bound. 1 <= r <= 16, n >= 1, m >= 1.
TEXT ·gatherGerAVX2(SB), NOSPLIT, $0-120

// The macros are defined inside the TEXT block because they name its
// arguments, which go vet resolves against the enclosing function.

// RUNENTRY reads list position AX: the value vals[ids[AX]] into Y14 and
// the address of factor row cols[AX] into R12. An index at or past its
// bound jumps to runbad; a value that is +0 or -0 (Axpy's zero test)
// jumps to skip, after both indices are checked.
#define RUNENTRY(skip) \
	MOVL         (R8)(AX*4), R10; \
	CMPQ         R10, nvals+40(FP); \
	JAE          runbad; \
	MOVL         (R9)(AX*4), R12; \
	CMPQ         R12, xrows+56(FP); \
	JAE          runbad; \
	MOVQ         (SI)(R10*8), R11; \
	SHLQ         $1, R11; \
	JZ           skip; \
	VBROADCASTSD (SI)(R10*8), Y14; \
	IMULQ        R13, R12; \
	ADDQ         DI, R12

// RUNACC adds the value times the factor row's vector at off to acc;
// RUNACCTAIL does it for the row's last one to four elements into Y4,
// under the lane mask in Y15 (a masked-out lane loads +0 and is never
// stored).
#define RUNACC(off, acc) \
	VMULPD off(R12), Y14, Y8; \
	VADDPD Y8, acc, acc

#define RUNACCTAIL(off) \
	VMASKMOVPD off(R12), Y15, Y8; \
	VMULPD     Y8, Y14, Y8; \
	VADDPD     Y8, Y4, Y4

// RUNNEXT steps to the next list position and back to loop while it is
// in the row and carries the run's key (DX); otherwise on to runger.
#define RUNNEXT(loop) \
	INCQ AX; \
	CMPQ AX, CX; \
	JGE  runger; \
	MOVL (BX)(AX*4), R10; \
	CMPQ R10, DX; \
	JEQ  loop; \
	JMP  runger

// RUNGER adds the lead element in Y14 times acc to the block's vector at
// DX and steps DX past it.
#define RUNGER(acc) \
	VMULPD  acc, Y14, Y8; \
	VADDPD  (DX), Y8, Y8; \
	VMOVUPD Y8, (DX); \
	ADDQ    $32, DX

	MOVQ    keys+0(FP), BX
	MOVQ    ids+8(FP), R8
	MOVQ    cols+16(FP), R9
	MOVQ    n+24(FP), CX
	MOVQ    vals+32(FP), SI
	MOVQ    x+48(FP), DI
	MOVQ    r+64(FP), R13
	SHLQ    $3, R13         // row stride of x in bytes
	MOVQ    mask+104(FP), R10
	VMOVDQU (R10), Y15
	MOVQ    $0, runs+112(FP)
	XORQ    AX, AX

runstart:
	MOVL   (BX)(AX*4), DX
	CMPQ   DX, lrows+80(FP)
	JAE    runbad
	INCQ   runs+112(FP)
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y4, Y4, Y4
	CMPQ   R13, $64
	JGT    runwide
	CMPQ   R13, $32
	JGT    run2

run1:
	RUNENTRY(run1skip)
	RUNACCTAIL(0)

run1skip:
	RUNNEXT(run1)

run2:
	RUNENTRY(run2skip)
	RUNACC(0, Y0)
	RUNACCTAIL(32)

run2skip:
	RUNNEXT(run2)

runwide:
	CMPQ R13, $96
	JGT  run4

run3:
	RUNENTRY(run3skip)
	RUNACC(0, Y0)
	RUNACC(32, Y1)
	RUNACCTAIL(64)

run3skip:
	RUNNEXT(run3)

run4:
	RUNENTRY(run4skip)
	RUNACC(0, Y0)
	RUNACC(32, Y1)
	RUNACC(64, Y2)
	RUNACCTAIL(96)

run4skip:
	RUNNEXT(run4)

runger:
	MOVQ  m+88(FP), R11
	MOVQ  R11, R10
	IMULQ DX, R10
	SHLQ  $3, R10
	ADDQ  l+72(FP), R10     // the lead row l[k]
	MOVQ  y+96(FP), R12

	PCALIGN $32

rungerrow:
	MOVQ         (R10), DX
	SHLQ         $1, DX
	JZ           rungernext
	VBROADCASTSD (R10), Y14
	MOVQ         R12, DX
	CMPQ         R13, $32
	JLE          rungertail
	RUNGER(Y0)
	CMPQ         R13, $64
	JLE          rungertail
	RUNGER(Y1)
	CMPQ         R13, $96
	JLE          rungertail
	RUNGER(Y2)

rungertail:
	VMULPD  Y4, Y14, Y8
	TESTQ   $24, R13
	JNZ     rungerpart
	VADDPD  (DX), Y8, Y8
	VMOVUPD Y8, (DX)
	JMP     rungernext

rungerpart:
	TESTQ        $16, R13
	JZ           rungerone
	VADDPD       (DX), X8, X9
	VMOVUPD      X9, (DX)
	TESTQ        $8, R13
	JZ           rungernext
	VEXTRACTF128 $1, Y8, X8
	VADDSD       16(DX), X8, X8
	VMOVSD       X8, 16(DX)
	JMP          rungernext

rungerone:
	VADDSD (DX), X8, X8
	VMOVSD X8, (DX)

rungernext:
	ADDQ $8, R10
	ADDQ R13, R12
	DECQ R11
	JNZ  rungerrow
	CMPQ AX, CX
	JLT  runstart
	VZEROUPPER
	RET

runbad:
	MOVQ $-1, runs+112(FP)
	VZEROUPPER
	RET
