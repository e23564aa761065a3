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
//
// Each term also prefetches half a line of the next block of rows of a,
// the rows the next call takes (contiguous, because lda is the row
// length), so that the whole block is on its way while this one
// computes: a's rows are each read once, for a handful of multiply-adds
// an element, so without it the tile waits on memory. A prefetch past the
// end of a cannot fault and changes no value.
TEXT ·gemm4x12AVX2(SB), NOSPLIT, $0-40
	MOVQ    a+0(FP), SI
	MOVQ    lda+8(FP), BX
	MOVQ    b+16(FP), DI
	MOVQ    k+24(FP), CX
	MOVQ    c+32(FP), DX
	LEAQ    (SI)(BX*8), R8
	LEAQ    (R8)(BX*8), R9
	LEAQ    (R9)(BX*8), R10
	LEAQ    (R10)(BX*8), R11 // the next block's first row
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
	PREFETCHT0 (R11)
	GEMMROW(SI, Y0, Y1, Y2)
	GEMMROW(R8, Y3, Y4, Y5)
	GEMMROW(R9, Y6, Y7, Y8)
	GEMMROW(R10, Y9, Y10, Y11)
	ADDQ    $32, R11
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

// The AVX-512 tiles below are the AᵀB tiles above at ZMM width, for a CPU
// with AVX512F whose OS saves the opmask and ZMM state. They keep the rule
// of the AVX2 tiles: a VMULPD and then a VADDPD per term, never an FMA, in
// ascending row order from the value the Go loop starts from. A masked
// load (the .Z form) gives +0 in a lane whose mask bit is clear and
// touches no memory there, a masked store leaves that lane alone, and
// what the lane computes in between is dropped.

// ATBPREFETCH asks for the two cache lines of b's row r + rows at the
// columns of b's row r that this tile reads, into L2 (PREFETCHT1, so that
// the strip in L1 is not evicted): the row of the next strip, which
// atbTiles hands the next calls. b's rows of a strip are read from
// memory once and then reused from L1 by every tile of the strip, and
// the first tiles to read them no longer wait for them: on the Gram
// solver's tall shapes SyrkInto gained 5-18% and MatMulTAInto 14-38%.
// Every group of four rows of p asks for the same lines again; asking
// only from the first group, whose tiles read every column, measured the
// same on those shapes at one and two threads (2-vCPU AVX-512 Xeon), so
// the tiles keep the one loop. A prefetch past the end of b cannot fault
// and changes no value.
#define ATBPREFETCH \
	PREFETCHT1 (DI)(BX*1); \
	PREFETCHT1 64(DI)(BX*1)

// ATBROWZ is ATBROW at ZMM width: broadcast a[r][j], multiply
// b[r][k:k+16] (Z8, Z9) by it, add to p[j][k:k+16].
#define ATBROWZ(off, bc, t0, t1, acc0, acc1) \
	VBROADCASTSD off(SI), bc; \
	VMULPD       Z8, bc, t0; \
	VMULPD       Z9, bc, t1; \
	VADDPD       t0, acc0, acc0; \
	VADDPD       t1, acc1, acc1

// func atb4x16AVX512(a *float64, lda int, b *float64, ldb int, p *float64, ldp int, rows int)
// atb4x8AVX2 sixteen columns wide: p[j][k] += a[r][j]*b[r][k] for r =
// 0..rows-1 in that order, j < 4, k < 16. rows >= 1.
TEXT ·atb4x16AVX512(SB), NOSPLIT, $0-56

// ATBARGS loads the arguments the two ZMM AᵀB tiles share: a, b and p
// in SI, DI and DX, the operand strides in bytes in R8 and R9, the row
// count in CX, p's rows 1 to 3 in R11, R12 and R13, and in BX the
// distance in bytes from a row of b to the one rows rows on. Like
// gatherGerAVX2's macros it is defined inside a TEXT block whose
// arguments it names, for go vet.
#define ATBARGS \
	MOVQ a+0(FP), SI; \
	MOVQ lda+8(FP), R8; \
	MOVQ b+16(FP), DI; \
	MOVQ ldb+24(FP), R9; \
	MOVQ p+32(FP), DX; \
	MOVQ ldp+40(FP), R10; \
	MOVQ rows+48(FP), CX; \
	SHLQ $3, R8; \
	SHLQ $3, R9; \
	LEAQ (DX)(R10*8), R11; \
	LEAQ (R11)(R10*8), R12; \
	LEAQ (R12)(R10*8), R13; \
	MOVQ CX, BX; \
	IMULQ R9, BX

	ATBARGS
	VMOVUPD (DX), Z0
	VMOVUPD 64(DX), Z1
	VMOVUPD (R11), Z2
	VMOVUPD 64(R11), Z3
	VMOVUPD (R12), Z4
	VMOVUPD 64(R12), Z5
	VMOVUPD (R13), Z6
	VMOVUPD 64(R13), Z7

atbzrow:
	ATBPREFETCH
	VMOVUPD (DI), Z8
	VMOVUPD 64(DI), Z9
	ATBROWZ(0, Z10, Z11, Z12, Z0, Z1)
	ATBROWZ(8, Z13, Z14, Z15, Z2, Z3)
	ATBROWZ(16, Z10, Z11, Z12, Z4, Z5)
	ATBROWZ(24, Z13, Z14, Z15, Z6, Z7)
	ADDQ    R8, SI
	ADDQ    R9, DI
	DECQ    CX
	JNZ     atbzrow
	VMOVUPD Z0, (DX)
	VMOVUPD Z1, 64(DX)
	VMOVUPD Z2, (R11)
	VMOVUPD Z3, 64(R11)
	VMOVUPD Z4, (R12)
	VMOVUPD Z5, 64(R12)
	VMOVUPD Z6, (R13)
	VMOVUPD Z7, 64(R13)
	VZEROUPPER
	RET

// func atb4x16MaskAVX512(a *float64, lda int, b *float64, ldb int, p *float64, ldp int, rows int, mask uint64)
// atb4x16AVX512 on the last one to fifteen columns of b and p, under the
// lane mask: bit i set for column i, the low eight bits in K1 for the
// first vector of a row, the next eight in K2 for the second.
TEXT ·atb4x16MaskAVX512(SB), NOSPLIT, $0-64
	ATBARGS
	MOVQ      mask+56(FP), AX
	KMOVW     AX, K1
	SHRQ      $8, AX
	KMOVW     AX, K2
	VMOVUPD.Z (DX), K1, Z0
	VMOVUPD.Z 64(DX), K2, Z1
	VMOVUPD.Z (R11), K1, Z2
	VMOVUPD.Z 64(R11), K2, Z3
	VMOVUPD.Z (R12), K1, Z4
	VMOVUPD.Z 64(R12), K2, Z5
	VMOVUPD.Z (R13), K1, Z6
	VMOVUPD.Z 64(R13), K2, Z7

atbzmaskrow:
	ATBPREFETCH
	VMOVUPD.Z (DI), K1, Z8
	VMOVUPD.Z 64(DI), K2, Z9
	ATBROWZ(0, Z10, Z11, Z12, Z0, Z1)
	ATBROWZ(8, Z13, Z14, Z15, Z2, Z3)
	ATBROWZ(16, Z10, Z11, Z12, Z4, Z5)
	ATBROWZ(24, Z13, Z14, Z15, Z6, Z7)
	ADDQ      R8, SI
	ADDQ      R9, DI
	DECQ      CX
	JNZ       atbzmaskrow
	VMOVUPD   Z0, K1, (DX)
	VMOVUPD   Z1, K2, 64(DX)
	VMOVUPD   Z2, K1, (R11)
	VMOVUPD   Z3, K2, 64(R11)
	VMOVUPD   Z4, K1, (R12)
	VMOVUPD   Z5, K2, 64(R12)
	VMOVUPD   Z6, K1, (R13)
	VMOVUPD   Z7, K2, 64(R13)
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

// GATHER_AHEAD is how many list positions ahead of the one they compute
// the two gather kernels prefetch (PREFETCHT0) the factor rows and the
// value that position will read, so that the gathers from beyond L2 are in
// flight while the positions before it compute. A constant of the code
// (8, 12, 16 and 24 measured alike, within the noise of a 2-vCPU box, on
// BenchmarkTTMcFlat's nell3_tall case, BenchmarkDTreeTTMc and the
// nell3_tall and netflix3 sweeps; 8 lost a little on the TTMc); no
// result depends on it.
#define GATHER_AHEAD 12

// AHEADTRAIL prefetches, for list position R10, the value vals[ids[R10]]
// and the first and last element of the factor row x[trail[R10]], with
// the registers both gather kernels keep them in: ids in R8, the trail
// (col) indices in R9, vals in SI, x in DI and its row stride in bytes in
// R13. Clobbers R11.
#define AHEADTRAIL \
	MOVL       (R8)(R10*4), R11; \
	PREFETCHT0 (SI)(R11*8); \
	MOVL       (R9)(R10*4), R11; \
	IMULQ      R13, R11; \
	ADDQ       DI, R11; \
	PREFETCHT0 (R11); \
	PREFETCHT0 -8(R11)(R13*1)

// func gatherGerAVX2(keys, ids, cols *int32, n, lim int, vals *float64, nvals int, x *float64, xrows, r int, l *float64, lrows, m int, y *float64, mask *int64) (runs int)
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
// bound. Before it reads position p, it prefetches what position
// p+GATHER_AHEAD will read: vals[ids[p+D]], the first and last element
// of x[cols[p+D]] and of l[keys[p+D]]. The look-ahead runs past n up to
// lim, the length all three index arrays can be read to, so a short row
// prefetches the next row's positions of the same streams. The indices of
// a position at or past n only ever form prefetch addresses, which are
// checked against no bound (a prefetch cannot fault) and never loaded
// through or stored to.
// 1 <= r <= 16, 1 <= n <= lim, m >= 1.
TEXT ·gatherGerAVX2(SB), NOSPLIT, $0-128

// The macros are defined inside the TEXT block because they name its
// arguments, which go vet resolves against the enclosing function.

// RUNAHEAD prefetches what list position AX+GATHER_AHEAD reads, or
// jumps to done when that position is at or past lim.
#define RUNAHEAD(done) \
	LEAQ       GATHER_AHEAD(AX), R10; \
	CMPQ       R10, lim+32(FP); \
	JAE        done; \
	AHEADTRAIL; \
	MOVL       (BX)(R10*4), R11; \
	IMULQ      m+96(FP), R11; \
	MOVQ       l+80(FP), R12; \
	PREFETCHT0 (R12)(R11*8); \
	ADDQ       m+96(FP), R11; \
	PREFETCHT0 -8(R12)(R11*8)

// RUNENTRY reads list position AX: the value vals[ids[AX]] into Y14 and
// the address of factor row cols[AX] into R12. An index at or past its
// bound jumps to runbad; a value that is +0 or -0 (Axpy's zero test)
// jumps to skip, after both indices are checked.
#define RUNENTRY(skip) \
	MOVL         (R8)(AX*4), R10; \
	CMPQ         R10, nvals+48(FP); \
	JAE          runbad; \
	MOVL         (R9)(AX*4), R12; \
	CMPQ         R12, xrows+64(FP); \
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
	MOVQ    vals+40(FP), SI
	MOVQ    x+56(FP), DI
	MOVQ    r+72(FP), R13
	SHLQ    $3, R13         // row stride of x in bytes
	MOVQ    mask+112(FP), R10
	VMOVDQU (R10), Y15
	MOVQ    $0, runs+120(FP)
	XORQ    AX, AX

runstart:
	MOVL   (BX)(AX*4), DX
	CMPQ   DX, lrows+88(FP)
	JAE    runbad
	INCQ   runs+120(FP)
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y4, Y4, Y4
	CMPQ   R13, $64
	JGT    runwide
	CMPQ   R13, $32
	JGT    run2

run1:
	RUNAHEAD(run1entry)

run1entry:
	RUNENTRY(run1skip)
	RUNACCTAIL(0)

run1skip:
	RUNNEXT(run1)

run2:
	RUNAHEAD(run2entry)

run2entry:
	RUNENTRY(run2skip)
	RUNACC(0, Y0)
	RUNACCTAIL(32)

run2skip:
	RUNNEXT(run2)

runwide:
	CMPQ R13, $96
	JGT  run4

run3:
	RUNAHEAD(run3entry)

run3entry:
	RUNENTRY(run3skip)
	RUNACC(0, Y0)
	RUNACC(32, Y1)
	RUNACCTAIL(64)

run3skip:
	RUNNEXT(run3)

run4:
	RUNAHEAD(run4entry)

run4entry:
	RUNENTRY(run4skip)
	RUNACC(0, Y0)
	RUNACC(32, Y1)
	RUNACC(64, Y2)
	RUNACCTAIL(96)

run4skip:
	RUNNEXT(run4)

runger:
	MOVQ  m+96(FP), R11
	MOVQ  R11, R10
	IMULQ DX, R10
	SHLQ  $3, R10
	ADDQ  l+80(FP), R10     // the lead row l[k]
	MOVQ  y+104(FP), R12

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
	MOVQ $-1, runs+120(FP)
	VZEROUPPER
	RET

// func gatherOuterAVX2(lead *int32, lstep int, ids, trail *int32, n, lim int, vals *float64, nvals int, x *float64, xrows, r int, l *float64, lrows, m int, y *float64, mask *int64) (bad int)
// One entry of a dimension tree's root child: y = +0, then for each list
// position p in order, with v = vals[ids[p]], the lead row l[lead[p]] (m
// elements) and the trail row x[trail[p]] (r elements),
// y[i*r:(i+1)*r] += (v*l[lead[p]][i]) * x[trail[p]] for i < m, a row
// whose scaled lead element is +0 or -0 skipped. Per element, the
// operations of the Go loops' Ger calls in their order. The block lives in
// registers for the whole entry: row i in the ⌈r/4⌉ vectors from
// Y(i*⌈r/4⌉), the last of them over the row's last one to four elements,
// which the trail row's vector in Y12 is loaded for under the lane mask
// (a masked-out lane loads +0 and is never stored); each vector count has
// its own loop, and a row past m is never touched. The lead cursor BX
// steps lstep bytes a position (0 reads lead[0] throughout, the unit row).
// The block is written once, at the end, under the same mask. Returns 0,
// or -1 as soon as a lead, id or trail index is at or past its bound, y
// then unwritten. Before it reads position p, it prefetches what position
// p+GATHER_AHEAD will read, as gatherGerAVX2 does and up to the same kind
// of bound lim: vals[ids[p+D]], the first and last element of
// x[trail[p+D]] and of the lead row l[lead[p+D]].
// 1 <= r <= 16, 1 <= m, m*⌈r/4⌉ <= 12, 1 <= n <= lim.
TEXT ·gatherOuterAVX2(SB), NOSPLIT, $0-136

// OUTAHEAD prefetches what list position AX+GATHER_AHEAD reads, or
// jumps to done when that position is at or past lim. Its lead index sits
// GATHER_AHEAD steps of lstep bytes past the lead cursor.
#define OUTAHEAD(done) \
	LEAQ       GATHER_AHEAD(AX), R10; \
	CMPQ       R10, lim+40(FP); \
	JAE        done; \
	AHEADTRAIL; \
	MOVQ       lstep+8(FP), R11; \
	IMUL3Q     $GATHER_AHEAD, R11, R11; \
	MOVL       (BX)(R11*1), R11; \
	IMULQ      m+104(FP), R11; \
	PREFETCHT0 (DX)(R11*8); \
	ADDQ       m+104(FP), R11; \
	PREFETCHT0 -8(DX)(R11*8)

// OUTENTRY reads list position AX: the value into X14, the address of
// lead row lead[p] into R10 and of trail row trail[p] into R12, and that
// row's last vector, at byte offset tail, into Y12 under the lane mask.
// An index at or past its bound jumps to outbad before any is used.
#define OUTENTRY(tail) \
	MOVL       (BX), R10; \
	CMPQ       R10, lrows+96(FP); \
	JAE        outbad; \
	MOVL       (R8)(AX*4), R11; \
	CMPQ       R11, nvals+56(FP); \
	JAE        outbad; \
	MOVL       (R9)(AX*4), R12; \
	CMPQ       R12, xrows+72(FP); \
	JAE        outbad; \
	VMOVSD     (SI)(R11*8), X14; \
	IMULQ      R13, R12; \
	ADDQ       DI, R12; \
	IMULQ      m+104(FP), R10; \
	LEAQ       (DX)(R10*8), R10; \
	MOVQ       mask+120(FP), R11; \
	VMOVDQU    (R11), Y13; \
	VMASKMOVPD tail(R12), Y13, Y12

// OUTLEAD scales the lead element at byte offset off by the value into
// Y13, all lanes, or jumps to skip when the product is +0 or -0 (Ger's
// zero test: a NaN is not a zero).
#define OUTLEAD(off, skip) \
	VMULSD       off(R10), X14, X13; \
	MOVQ         X13, R11; \
	SHLQ         $1, R11; \
	JZ           skip; \
	VBROADCASTSD X13, Y13

// OUTACC adds the scaled lead element times the trail row's vector at
// off to acc; OUTTAIL does it for the row's last vector, held in Y12.
#define OUTACC(off, acc) \
	VMULPD off(R12), Y13, Y15; \
	VADDPD Y15, acc, acc

#define OUTTAIL(acc) \
	VMULPD Y12, Y13, Y15; \
	VADDPD Y15, acc, acc

// OUTMORE jumps to done when the block has no row past the first rows.
#define OUTMORE(rows, done) \
	CMPQ m+104(FP), $rows; \
	JEQ  done

// OUTNEXT steps to the next list position and back to loop while there
// is one, otherwise on to store.
#define OUTNEXT(loop, store) \
	ADDQ lstep+8(FP), BX; \
	INCQ AX; \
	CMPQ AX, CX; \
	JLT  loop; \
	JMP  store

// OUTSTART points R12 at y and loads the lane mask into Y13 for the
// stores; OUTROW steps R12 to the block's next row.
#define OUTSTART \
	MOVQ    y+112(FP), R12; \
	MOVQ    mask+120(FP), R11; \
	VMOVDQU (R11), Y13

#define OUTROW ADDQ R13, R12

	MOVQ   lead+0(FP), BX
	MOVQ   ids+16(FP), R8
	MOVQ   trail+24(FP), R9
	MOVQ   n+32(FP), CX
	MOVQ   vals+48(FP), SI
	MOVQ   x+64(FP), DI
	MOVQ   r+80(FP), R13
	MOVQ   l+88(FP), DX
	MOVQ   $0, bad+128(FP)
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	VXORPD Y8, Y8, Y8
	VXORPD Y9, Y9, Y9
	VXORPD Y10, Y10, Y10
	VXORPD Y11, Y11, Y11
	XORQ   AX, AX
	CMPQ   R13, $4
	JLE    outv1
	CMPQ   R13, $8
	JLE    outv2
	CMPQ   R13, $12
	JLE    outv3
	JMP    outv4

// Rows of one vector: up to twelve, row i in Y(i).
outv1:
	SHLQ $3, R13 // row stride of x and of y in bytes

outv1pos:
	OUTAHEAD(outv1entry)

outv1entry:
	OUTENTRY(0)
	OUTLEAD(0, outv1r1)
	OUTTAIL(Y0)

outv1r1:
	OUTMORE(1, outv1next)
	OUTLEAD(8, outv1r2)
	OUTTAIL(Y1)

outv1r2:
	OUTMORE(2, outv1next)
	OUTLEAD(16, outv1r3)
	OUTTAIL(Y2)

outv1r3:
	OUTMORE(3, outv1next)
	OUTLEAD(24, outv1r4)
	OUTTAIL(Y3)

outv1r4:
	OUTMORE(4, outv1next)
	OUTLEAD(32, outv1r5)
	OUTTAIL(Y4)

outv1r5:
	OUTMORE(5, outv1next)
	OUTLEAD(40, outv1r6)
	OUTTAIL(Y5)

outv1r6:
	OUTMORE(6, outv1next)
	OUTLEAD(48, outv1r7)
	OUTTAIL(Y6)

outv1r7:
	OUTMORE(7, outv1next)
	OUTLEAD(56, outv1r8)
	OUTTAIL(Y7)

outv1r8:
	OUTMORE(8, outv1next)
	OUTLEAD(64, outv1r9)
	OUTTAIL(Y8)

outv1r9:
	OUTMORE(9, outv1next)
	OUTLEAD(72, outv1r10)
	OUTTAIL(Y9)

outv1r10:
	OUTMORE(10, outv1next)
	OUTLEAD(80, outv1r11)
	OUTTAIL(Y10)

outv1r11:
	OUTMORE(11, outv1next)
	OUTLEAD(88, outv1next)
	OUTTAIL(Y11)

outv1next:
	OUTNEXT(outv1pos, outv1store)

outv1store:
	OUTSTART
	VMASKMOVPD Y0, Y13, (R12)
	OUTMORE(1, outdone)
	OUTROW
	VMASKMOVPD Y1, Y13, (R12)
	OUTMORE(2, outdone)
	OUTROW
	VMASKMOVPD Y2, Y13, (R12)
	OUTMORE(3, outdone)
	OUTROW
	VMASKMOVPD Y3, Y13, (R12)
	OUTMORE(4, outdone)
	OUTROW
	VMASKMOVPD Y4, Y13, (R12)
	OUTMORE(5, outdone)
	OUTROW
	VMASKMOVPD Y5, Y13, (R12)
	OUTMORE(6, outdone)
	OUTROW
	VMASKMOVPD Y6, Y13, (R12)
	OUTMORE(7, outdone)
	OUTROW
	VMASKMOVPD Y7, Y13, (R12)
	OUTMORE(8, outdone)
	OUTROW
	VMASKMOVPD Y8, Y13, (R12)
	OUTMORE(9, outdone)
	OUTROW
	VMASKMOVPD Y9, Y13, (R12)
	OUTMORE(10, outdone)
	OUTROW
	VMASKMOVPD Y10, Y13, (R12)
	OUTMORE(11, outdone)
	OUTROW
	VMASKMOVPD Y11, Y13, (R12)
	JMP        outdone

// Rows of two vectors: up to six, row i in Y(2i), Y(2i+1).
outv2:
	SHLQ $3, R13

outv2pos:
	OUTAHEAD(outv2entry)

outv2entry:
	OUTENTRY(32)
	OUTLEAD(0, outv2r1)
	OUTACC(0, Y0)
	OUTTAIL(Y1)

outv2r1:
	OUTMORE(1, outv2next)
	OUTLEAD(8, outv2r2)
	OUTACC(0, Y2)
	OUTTAIL(Y3)

outv2r2:
	OUTMORE(2, outv2next)
	OUTLEAD(16, outv2r3)
	OUTACC(0, Y4)
	OUTTAIL(Y5)

outv2r3:
	OUTMORE(3, outv2next)
	OUTLEAD(24, outv2r4)
	OUTACC(0, Y6)
	OUTTAIL(Y7)

outv2r4:
	OUTMORE(4, outv2next)
	OUTLEAD(32, outv2r5)
	OUTACC(0, Y8)
	OUTTAIL(Y9)

outv2r5:
	OUTMORE(5, outv2next)
	OUTLEAD(40, outv2next)
	OUTACC(0, Y10)
	OUTTAIL(Y11)

outv2next:
	OUTNEXT(outv2pos, outv2store)

outv2store:
	OUTSTART
	VMOVUPD    Y0, (R12)
	VMASKMOVPD Y1, Y13, 32(R12)
	OUTMORE(1, outdone)
	OUTROW
	VMOVUPD    Y2, (R12)
	VMASKMOVPD Y3, Y13, 32(R12)
	OUTMORE(2, outdone)
	OUTROW
	VMOVUPD    Y4, (R12)
	VMASKMOVPD Y5, Y13, 32(R12)
	OUTMORE(3, outdone)
	OUTROW
	VMOVUPD    Y6, (R12)
	VMASKMOVPD Y7, Y13, 32(R12)
	OUTMORE(4, outdone)
	OUTROW
	VMOVUPD    Y8, (R12)
	VMASKMOVPD Y9, Y13, 32(R12)
	OUTMORE(5, outdone)
	OUTROW
	VMOVUPD    Y10, (R12)
	VMASKMOVPD Y11, Y13, 32(R12)
	JMP        outdone

// Rows of three vectors: up to four, row i in Y(3i) to Y(3i+2).
outv3:
	SHLQ $3, R13

outv3pos:
	OUTAHEAD(outv3entry)

outv3entry:
	OUTENTRY(64)
	OUTLEAD(0, outv3r1)
	OUTACC(0, Y0)
	OUTACC(32, Y1)
	OUTTAIL(Y2)

outv3r1:
	OUTMORE(1, outv3next)
	OUTLEAD(8, outv3r2)
	OUTACC(0, Y3)
	OUTACC(32, Y4)
	OUTTAIL(Y5)

outv3r2:
	OUTMORE(2, outv3next)
	OUTLEAD(16, outv3r3)
	OUTACC(0, Y6)
	OUTACC(32, Y7)
	OUTTAIL(Y8)

outv3r3:
	OUTMORE(3, outv3next)
	OUTLEAD(24, outv3next)
	OUTACC(0, Y9)
	OUTACC(32, Y10)
	OUTTAIL(Y11)

outv3next:
	OUTNEXT(outv3pos, outv3store)

outv3store:
	OUTSTART
	VMOVUPD    Y0, (R12)
	VMOVUPD    Y1, 32(R12)
	VMASKMOVPD Y2, Y13, 64(R12)
	OUTMORE(1, outdone)
	OUTROW
	VMOVUPD    Y3, (R12)
	VMOVUPD    Y4, 32(R12)
	VMASKMOVPD Y5, Y13, 64(R12)
	OUTMORE(2, outdone)
	OUTROW
	VMOVUPD    Y6, (R12)
	VMOVUPD    Y7, 32(R12)
	VMASKMOVPD Y8, Y13, 64(R12)
	OUTMORE(3, outdone)
	OUTROW
	VMOVUPD    Y9, (R12)
	VMOVUPD    Y10, 32(R12)
	VMASKMOVPD Y11, Y13, 64(R12)
	JMP        outdone

// Rows of four vectors: up to three, row i in Y(4i) to Y(4i+3).
outv4:
	SHLQ $3, R13

outv4pos:
	OUTAHEAD(outv4entry)

outv4entry:
	OUTENTRY(96)
	OUTLEAD(0, outv4r1)
	OUTACC(0, Y0)
	OUTACC(32, Y1)
	OUTACC(64, Y2)
	OUTTAIL(Y3)

outv4r1:
	OUTMORE(1, outv4next)
	OUTLEAD(8, outv4r2)
	OUTACC(0, Y4)
	OUTACC(32, Y5)
	OUTACC(64, Y6)
	OUTTAIL(Y7)

outv4r2:
	OUTMORE(2, outv4next)
	OUTLEAD(16, outv4next)
	OUTACC(0, Y8)
	OUTACC(32, Y9)
	OUTACC(64, Y10)
	OUTTAIL(Y11)

outv4next:
	OUTNEXT(outv4pos, outv4store)

outv4store:
	OUTSTART
	VMOVUPD    Y0, (R12)
	VMOVUPD    Y1, 32(R12)
	VMOVUPD    Y2, 64(R12)
	VMASKMOVPD Y3, Y13, 96(R12)
	OUTMORE(1, outdone)
	OUTROW
	VMOVUPD    Y4, (R12)
	VMOVUPD    Y5, 32(R12)
	VMOVUPD    Y6, 64(R12)
	VMASKMOVPD Y7, Y13, 96(R12)
	OUTMORE(2, outdone)
	OUTROW
	VMOVUPD    Y8, (R12)
	VMOVUPD    Y9, 32(R12)
	VMOVUPD    Y10, 64(R12)
	VMASKMOVPD Y11, Y13, 96(R12)

outdone:
	VZEROUPPER
	RET

outbad:
	MOVQ $-1, bad+128(FP)
	VZEROUPPER
	RET
