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
