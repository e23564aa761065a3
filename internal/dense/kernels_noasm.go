//go:build !amd64 || purego

package dense

// useAVX2 and useAVX512 are constant false in this build, so the compiler
// drops the assembly branch of every wrapper; the declarations below only
// let those branches type-check.
const useAVX2, useAVX512 = false, false

// KernelPaths names the kernel paths this build can run: the Go loops.
func KernelPaths() []string { return []string{"go"} }

// UseKernelPath is a no-op: the Go loops are this build's only path.
func UseKernelPath(string) (restore func()) { return func() {} }

func axpy4AVX2(a0, a1, a2, a3 float64, x *float64, stride int, y *float64, n int) {
	panic("dense: no assembly kernels in this build")
}

func gerAVX2(c *float64, m int, x *float64, n int, y *float64) {
	panic("dense: no assembly kernels in this build")
}

func axpyAVX2(alpha float64, x, y *float64, n int) {
	panic("dense: no assembly kernels in this build")
}

func atb4x8AVX2(a *float64, lda int, b *float64, ldb int, p *float64, ldp int, rows int) {
	panic("dense: no assembly kernels in this build")
}

func atb4x4AVX2(a *float64, lda int, b *float64, ldb int, p *float64, ldp int, rows int, mask *int64) {
	panic("dense: no assembly kernels in this build")
}

func gemm4x12AVX2(a *float64, lda int, b *float64, k int, c *float64) {
	panic("dense: no assembly kernels in this build")
}

func atb4x16AVX512(a *float64, lda int, b *float64, ldb int, p *float64, ldp int, rows int) {
	panic("dense: no assembly kernels in this build")
}

func atb4x16MaskAVX512(a *float64, lda int, b *float64, ldb int, p *float64, ldp int, rows int, mask uint64) {
	panic("dense: no assembly kernels in this build")
}

func gatherGerAVX2(keys, ids, cols *int32, n, lim int, vals *float64, nvals int, x *float64, xrows, r int, l *float64, lrows, m int, y *float64, mask *int64) (runs int) {
	panic("dense: no assembly kernels in this build")
}
