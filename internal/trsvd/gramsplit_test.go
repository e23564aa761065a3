package trsvd

import (
	"fmt"
	"math/rand"
	"testing"

	"hypertensor/internal/dense"
	"hypertensor/internal/gen"
	"hypertensor/internal/symbolic"
	"hypertensor/internal/ttm"
)

// BenchmarkGramSplit times one Gram solve of each mode that takes the
// split Gram on inputs of the nell3_tall and netflix3 benchmark
// workloads' shapes (seed 1, ranks 10): Y_(n) in split order from the
// flat kernel, its singleton rows summed by the split (split) and by the
// plain SYRK over the same rows (plain), the product G = YᵀY alone
// (product, with its madds) and the whole solve (solve). The factors are
// random orthonormal ones; the Gram's cost does not depend on their
// values. The census row times SplitSingletons over every mode, index
// streams built, as an engine runs it when it builds the kernel.
//
//	go test -run '^$' -bench GramSplit -cpu 1,2 ./internal/trsvd
func BenchmarkGramSplit(b *testing.B) {
	for _, w := range []struct {
		name string
		dims []int
		nnz  int
		skew float64
	}{
		{"nell3_tall", []int{640000, 301, 127600}, 400_000, 0.3},
		{"netflix3", []int{96000, 3400, 400}, 600_000, 0.4},
	} {
		x := gen.Random(gen.Config{Dims: w.dims, NNZ: w.nnz, Skew: w.skew, Seed: 1})
		ranks := []int{10, 10, 10}
		rng := rand.New(rand.NewSource(1))
		u := make([]*dense.Matrix, len(ranks))
		for n := range u {
			u[n] = dense.Orthonormalize(dense.RandomNormal(w.dims[n], ranks[n], rng), 0)
		}
		sym := symbolic.Build(x, 0)
		for n := range sym.Modes {
			sym.Modes[n].Streams(x)
		}
		// The census of every mode, as an engine takes it at kernel build.
		b.Run(w.name+"/census", func(b *testing.B) {
			for range b.N {
				k := ttm.NewFlat(x, sym)
				for n := range ranks {
					k.SplitSingletons(n, ranks)
				}
			}
		})
		k := ttm.NewFlat(x, sym)
		for n := range ranks {
			cen, kron := k.SplitSingletons(n, ranks)
			if kron == nil {
				continue
			}
			kron.U = u[cen.Group]
			y := dense.NewMatrix(len(k.Rows(n)), ttm.RowSize(u, n))
			k.TTMc(y, n, u, 0)
			for _, split := range []bool{false, true} {
				op := &DenseOperator{A: y}
				label := "plain"
				if split {
					op.Kron, label = kron, "split"
				}
				name := fmt.Sprintf("%s/mode=%d,rows=%d,singletons=%d,group=%d,groups=%d/%s",
					w.name, n, y.Rows, cen.Singletons, cen.Group, cen.Groups, label)
				// The product G = YᵀY alone, and the whole solve. A sweep's
				// solves reuse one workspace; the first call grows it,
				// untimed.
				b.Run(name+"/product", func(b *testing.B) {
					g := dense.NewMatrix(y.Cols, y.Cols)
					work := op.Gram(g, nil)
					b.ResetTimer()
					for range b.N {
						work = op.Gram(g, work)
					}
					b.ReportMetric(float64(GramMadds(op))/1e6, "Mmadd/op")
				})
				b.Run(name+"/solve", func(b *testing.B) {
					opts := Options{Seed: 1, Work: NewWorkspace()}
					if _, err := Gram(op, ranks[n], opts); err != nil {
						b.Fatal(err)
					}
					b.ResetTimer()
					for range b.N {
						if _, err := Gram(op, ranks[n], opts); err != nil {
							b.Fatal(err)
						}
					}
				})
			}
		}
	}
}
