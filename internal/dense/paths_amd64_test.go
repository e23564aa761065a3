//go:build amd64 && !purego

package dense

import "fmt"

// hostAVX2 and hostAVX512 are what start-up detection found, before any
// test switched a path off.
var hostAVX2, hostAVX512 = useAVX2, useAVX512

// hostPaths lists the kernel paths this host can run, the Go loops first
// and the path a plain run takes last.
func hostPaths() []kernelPath {
	paths := []kernelPath{{name: "go"}}
	if hostAVX2 {
		paths = append(paths, kernelPath{name: "avx2", avx2: true})
	}
	if hostAVX512 {
		paths = append(paths, kernelPath{name: "avx512", avx2: true, avx512: true})
	}
	return paths
}

// use switches the package to p and returns the function that switches it
// back to what start-up detection found.
func (p kernelPath) use() (restore func()) {
	useAVX2, useAVX512 = p.avx2, p.avx512
	return func() { useAVX2, useAVX512 = hostAVX2, hostAVX512 }
}

// cpuFeatures is the CPUID and XCR0 bits the dispatch reads.
func cpuFeatures() string {
	_, _, c1, _ := cpuid(1, 0)
	_, b7, _, _ := cpuid(7, 0)
	xcr0, _ := xgetbv()
	return fmt.Sprintf("OSXSAVE=%d AVX=%d AVX2=%d AVX512F=%d XCR0=%#x (YMM state %v, opmask+ZMM state %v)",
		c1>>27&1, c1>>28&1, b7>>5&1, b7>>16&1, xcr0, xcr0&0x6 == 0x6, xcr0&0xe0 == 0xe0)
}
