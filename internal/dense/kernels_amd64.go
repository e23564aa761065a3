//go:build amd64 && !purego

package dense

// useAVX2 is the one dispatch point of the axpy family (see kernels.go).
var useAVX2 = detectAVX2()

// detectAVX2 reports whether the CPU has AVX2 and the OS saves the YMM
// state across context switches (OSXSAVE, and XCR0 bits 1 and 2).
func detectAVX2() bool {
	const osxsave, avx, avx2, xmmYmm = 1 << 27, 1 << 28, 1 << 5, 6
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	if _, _, c, _ := cpuid(1, 0); c&(osxsave|avx) != osxsave|avx {
		return false
	}
	if lo, _ := xgetbv(); lo&xmmYmm != xmmYmm {
		return false
	}
	_, b, _, _ := cpuid(7, 0)
	return b&avx2 != 0
}

// The kernels take bare pointers and counts: the wrappers in kernels.go
// and blas.go have checked every length, and n >= 4 (gerAVX2: m >= 1);
// the tile drivers in tile.go pass whole tiles and rows, k >= 1.

//go:noescape
func axpy4AVX2(a0, a1, a2, a3 float64, x *float64, stride int, y *float64, n int)

//go:noescape
func gerAVX2(c *float64, m int, x *float64, n int, y *float64)

//go:noescape
func axpyAVX2(alpha float64, x, y *float64, n int)

//go:noescape
func atb4x8AVX2(a *float64, lda int, b *float64, ldb int, p *float64, ldp int, rows int)

//go:noescape
func atb4x4AVX2(a *float64, lda int, b *float64, ldb int, p *float64, ldp int, rows int, mask *int64)

//go:noescape
func gemm4x12AVX2(a *float64, lda int, b *float64, k int, c *float64)

//go:noescape
func gatherGerAVX2(keys, ids, cols *int32, n int, vals *float64, nvals int, x *float64, xrows, r int, l *float64, lrows, m int, y *float64, mask *int64) (runs int)

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)
