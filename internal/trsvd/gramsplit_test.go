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

// BenchmarkGramSplit times each mode that takes the split Gram on inputs
// of the nell3_tall, netflix3 and delicious4 benchmark workloads' shapes
// (seed 1, ranks 10 on order 3 and 5 on order 4), with Y_(n) held two
// ways: compact, the mode's singleton rows c = C/R_g wide behind its
// multi rows as the kernel the plan picks (the flat kernel on order 3,
// the dimension tree on order 4) writes them in split order, read by the
// split operator (DenseOperator with Kron); and wide, every row C wide
// from the same kernel in ascending order, read by the plain operator —
// what a mode without the census runs. Per layout it times the TTMc of
// the mode (ttmc; the tree's with its parent cached, as in a sweep), the
// product G = YᵀY (product, with its madds), U = Y·W (yw, with its
// madds) and the whole Gram solve (solve). The factors are random
// orthonormal ones; no cost depends on their values. The census row
// times SplitSingletons over every mode, index streams built, as an
// engine runs it when it builds the kernel.
//
//	go test -run '^$' -bench GramSplit -cpu 1,2 ./internal/trsvd
func BenchmarkGramSplit(b *testing.B) {
	for _, w := range []struct {
		name  string
		dims  []int
		nnz   int
		skew  float64
		ranks []int
	}{
		{"nell3_tall", []int{640000, 301, 127600}, 400_000, 0.3, []int{10, 10, 10}},
		{"netflix3", []int{96000, 3400, 400}, 600_000, 0.4, []int{10, 10, 10}},
		{"delicious4", []int{1400, 20000, 400000, 60000}, 400_000, 0.5, []int{5, 5, 5, 5}},
	} {
		x := gen.Random(gen.Config{Dims: w.dims, NNZ: w.nnz, Skew: w.skew, Seed: 1})
		ranks := w.ranks
		rng := rand.New(rand.NewSource(1))
		u := make([]*dense.Matrix, len(ranks))
		for n := range u {
			u[n], _ = dense.QR(randomNormal(w.dims[n], ranks[n], rng))
		}
		// newKernel builds the kernel an engine builds for the shape.
		sym := symbolic.Build(x, 0)
		newKernel := func() splitKernel {
			if len(ranks) >= 4 {
				return ttm.BuildDTree(x, 0)
			}
			return ttm.BuildFlat(x, sym, 0)
		}
		// The census of every mode, as an engine takes it at kernel build
		// (each call takes it afresh).
		b.Run(w.name+"/census", func(b *testing.B) {
			k := newKernel()
			b.ResetTimer()
			for range b.N {
				for n := range ranks {
					k.SplitSingletons(n, ranks)
				}
			}
		})
		wideKern, split := newKernel(), newKernel()
		for n := range ranks {
			cen, kron := split.SplitSingletons(n, ranks)
			if kron == nil {
				continue
			}
			cols := ttm.RowSize(u, n)
			kron.U = u[cen.Group]
			kron.T = *dense.NewMatrix(cen.Singletons, cols/ranks[cen.Group])
			compact := &DenseOperator{A: dense.NewMatrix(len(split.Rows(n))-cen.Singletons, cols), Kron: kron}
			wide := &DenseOperator{A: dense.NewMatrix(len(split.Rows(n)), cols)}
			for _, layout := range []struct {
				name string
				op   *DenseOperator
				kern splitKernel
			}{{"wide", wide, wideKern}, {"compact", compact, split}} {
				op, kern := layout.op, layout.kern
				name := fmt.Sprintf("%s/mode=%d,rows=%d,singletons=%d,group=%d,groups=%d/%s",
					w.name, n, op.LocalRows(), cen.Singletons, cen.Group, cen.Groups, layout.name)
				// Every phase after the TTMc reads the Y it wrote; a
				// sweep's solves reuse one workspace, and the first call
				// of each phase grows what it keeps, untimed.
				b.Run(name+"/ttmc", func(b *testing.B) {
					kern.TTMc(op.A, n, u, 0)
					b.ResetTimer()
					for range b.N {
						kern.TTMc(op.A, n, u, 0)
					}
				})
				b.Run(name+"/product", func(b *testing.B) {
					g := dense.NewMatrix(cols, cols)
					work := op.Gram(g, nil)
					b.ResetTimer()
					for range b.N {
						work = op.Gram(g, work)
					}
					b.ReportMetric(float64(GramMadds(op))/1e6, "Mmadd/op")
				})
				b.Run(name+"/yw", func(b *testing.B) {
					wm := randomNormal(cols, ranks[n], rand.New(rand.NewSource(2)))
					uy := dense.NewMatrix(op.LocalRows(), ranks[n])
					op.MatMat(wm, uy)
					b.ResetTimer()
					for range b.N {
						op.MatMat(wm, uy)
					}
					b.ReportMetric(float64(MatMatMadds(op, ranks[n]))/1e6, "Mmadd/op")
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

// splitKernel is what either TTMc kernel offers a mode in split order.
type splitKernel interface {
	SplitSingletons(n int, ranks []int) (ttm.Census, *dense.KronRows)
	Rows(n int) []int32
	TTMc(y *dense.Matrix, n int, u []*dense.Matrix, threads int)
}
