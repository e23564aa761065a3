//go:build amd64 && !purego

package dense

import "fmt"

// cpuFeatures is the CPUID and XCR0 bits the dispatch reads.
func cpuFeatures() string {
	_, _, c1, _ := cpuid(1, 0)
	_, b7, _, _ := cpuid(7, 0)
	xcr0, _ := xgetbv()
	return fmt.Sprintf("OSXSAVE=%d AVX=%d AVX2=%d AVX512F=%d XCR0=%#x (YMM state %v, opmask+ZMM state %v)",
		c1>>27&1, c1>>28&1, b7>>5&1, b7>>16&1, xcr0, xcr0&0x6 == 0x6, xcr0&0xe0 == 0xe0)
}
