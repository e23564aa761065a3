package dense

import (
	"fmt"
	"math/rand"
	"testing"
)

// BenchmarkTilePaths times the Gram TRSVD's three block products on every
// kernel path the host has: SyrkInto (G = YᵀY), MatMulTAInto (the R x C
// product UᵀY from a rows x R and a rows x C operand) and MatMulInto (the
// C -> R product U = Y·V), at the gated workloads' Y_(n) shapes (order 3
// at ranks 10: 41656 x 100, 32496 x 100; order 4 at ranks 5: 13308 x 125)
// and at one that stays in L2 (2048 x 100), in Gmadd/s. The thread count
// is GOMAXPROCS, so -cpu sets it:
//
//	go test -run '^$' -bench TilePaths -cpu 1,2 ./internal/dense
func BenchmarkTilePaths(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	for _, s := range []struct{ rows, cols, rank int }{
		{41656, 100, 10}, {32496, 100, 10}, {13308, 125, 5}, {2048, 100, 10},
	} {
		y := RandomNormal(s.rows, s.cols, rng)
		f := RandomNormal(s.rows, s.rank, rng)
		v := RandomNormal(s.cols, s.rank, rng)
		g, ta, u := NewMatrix(s.cols, s.cols), NewMatrix(s.rank, s.cols), NewMatrix(s.rows, s.rank)
		var work []float64
		for _, p := range KernelPaths() {
			restore := UseKernelPath(p)
			run := func(name string, madds int, op func()) {
				b.Run(fmt.Sprintf("%s/%s", name, p), func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						op()
					}
					b.ReportMetric(float64(madds)*float64(b.N)/b.Elapsed().Seconds()/1e9, "Gmadd/s")
				})
			}
			run(fmt.Sprintf("SyrkInto/%dx%d", s.rows, s.cols), s.rows*s.cols*(s.cols+1)/2,
				func() { work = SyrkInto(g, y, work, 0) })
			run(fmt.Sprintf("MatMulTAInto/%dx%dx%d", s.rows, s.rank, s.cols), s.rows*s.rank*s.cols,
				func() { MatMulTAInto(ta, f, y, 0) })
			run(fmt.Sprintf("MatMulInto/%dx%dto%d", s.rows, s.cols, s.rank), s.rows*s.cols*s.rank,
				func() { MatMulInto(u, y, v, 0) })
			restore()
		}
	}
}
