//go:build amd64 && !purego

package dense

// useAVX2 and useAVX512 are the dispatch points of the kernels (see
// kernels.go), set once at start-up; hostAVX2 and hostAVX512 keep what
// start-up found while a test runs another path (UseKernelPath).
var useAVX2, useAVX512 = detectAVX()

var hostAVX2, hostAVX512 = useAVX2, useAVX512

// KernelPaths names the kernel paths this host can run, the Go loops
// first and the one a plain run takes (KernelName) last.
func KernelPaths() []string {
	paths := []string{"go"}
	if hostAVX2 {
		paths = append(paths, "avx2")
	}
	if hostAVX512 {
		paths = append(paths, "avx512")
	}
	return paths
}

// UseKernelPath switches the kernels to a path of KernelPaths and returns
// the function that switches them back to the host's: a test holds a
// result to every path with it, this package's and those built on it. No
// kernel may run meanwhile.
func UseKernelPath(name string) (restore func()) {
	useAVX2, useAVX512 = name != "go", name == "avx512"
	return func() { useAVX2, useAVX512 = hostAVX2, hostAVX512 }
}

// detectAVX reports whether the CPU has AVX2 and the OS saves the YMM
// state across context switches (OSXSAVE, and XCR0 bits 1 and 2), and
// whether on top of that it has AVX512F and the OS saves the opmask and
// ZMM state (XCR0 bits 5 to 7).
func detectAVX() (avx2, avx512 bool) {
	const osxsave, avx, avx2Bit, avx512F = 1 << 27, 1 << 28, 1 << 5, 1 << 16
	const xmmYmm, opmaskZmm = 0x6, 0xe0
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false, false
	}
	if _, _, c, _ := cpuid(1, 0); c&(osxsave|avx) != osxsave|avx {
		return false, false
	}
	xcr0, _ := xgetbv()
	if xcr0&xmmYmm != xmmYmm {
		return false, false
	}
	_, b, _, _ := cpuid(7, 0)
	avx2 = b&avx2Bit != 0
	return avx2, avx2 && b&avx512F != 0 && xcr0&opmaskZmm == opmaskZmm
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
func atb4x16AVX512(a *float64, lda int, b *float64, ldb int, p *float64, ldp int, rows int)

//go:noescape
func atb4x16MaskAVX512(a *float64, lda int, b *float64, ldb int, p *float64, ldp int, rows int, mask uint64)

//go:noescape
func gatherGerAVX2(keys, ids, cols *int32, n, lim int, vals *float64, nvals int, x *float64, xrows, r int, l *float64, lrows, m int, y *float64, mask *int64) (runs int)

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

//go:noescape
func gatherOuterAVX2(lead *int32, lstep int, ids, trail *int32, n, lim int, vals *float64, nvals int, x *float64, xrows, r int, l *float64, lrows, m int, y *float64, mask *int64) (bad int)
