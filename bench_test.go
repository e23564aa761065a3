package hypertensor

// Kernel and ablation benchmarks for the design choices called out in
// docs/architecture.md. The paper's tables are printed by hooi, htpart
// and gentensor (README "Reproducing the paper's tables"); times that
// gate a change are `go run ./benchmark`'s.

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime/debug"
	"strconv"
	"sync"
	"testing"

	"hypertensor/internal/core"
	"hypertensor/internal/dense"
	"hypertensor/internal/dist"
	"hypertensor/internal/gen"
	"hypertensor/internal/hypergraph"
	"hypertensor/internal/symbolic"
	"hypertensor/internal/tensor"
	"hypertensor/internal/trsvd"
	"hypertensor/internal/ttm"
)

// randomNormal fills a new r x c matrix with N(0,1) samples drawn from
// rng: the tests' operands.
func randomNormal(r, c int, rng *rand.Rand) *dense.Matrix {
	m := dense.NewMatrix(r, c)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

// --- Ablations -------------------------------------------------------

// ablationSetup builds a mid-size tensor with factor matrices and the
// symbolic structure shared by the kernel ablations.
func ablationSetup() (*SparseTensor, []*dense.Matrix, *symbolic.Structure) {
	x := gen.Random(gen.Config{Dims: []int{2000, 1500, 1000}, NNZ: 80000, Skew: 0.7, Seed: 2})
	us := make([]*dense.Matrix, 3)
	seedRNG := dist.DefaultInitial(x.Dims, []int{10, 10, 10}, 3)
	copy(us, seedRNG)
	return x, us, symbolic.Build(x, 0)
}

// The production kernel's rows for one mode: the fused, run-factored
// TTMc. Its unfused oracle, which materializes the Kronecker product per
// nonzero, is timed beside it in the kernel's package:
// go test -run '^$' -bench 'TTMc(Fused|Naive)' ./internal/ttm
func BenchmarkAblationTTMcFused(b *testing.B) {
	x, us, sym := ablationSetup()
	sm := &sym.Modes[0]
	y := dense.NewMatrix(sm.NumRows(), ttm.RowSize(us, 0))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ttm.TTMc(y, x, sm, us, 0)
	}
}

// Symbolic preprocessing cost (paid once)...
func BenchmarkAblationSymbolicBuild(b *testing.B) {
	x, _, _ := ablationSetup()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		symbolic.Build(x, 0)
	}
}

// ...versus the numeric sweep it accelerates every iteration (the
// reuse argument of §III.A.1: symbolic/numeric ≈ one-time vs per-sweep).
func BenchmarkAblationNumericSweep(b *testing.B) {
	x, us, sym := ablationSetup()
	ys := make([]*dense.Matrix, 3)
	for n := range ys {
		ys[n] = dense.NewMatrix(sym.Modes[n].NumRows(), ttm.RowSize(us, n))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for n := 0; n < 3; n++ {
			ttm.TTMc(ys[n], x, &sym.Modes[n], us, 0)
		}
	}
}

// BenchmarkSVDRule is the evidence for the rule that picks a mode's
// TRSVD solver from its shape (core.ResolveSVD): it times one Gram and
// one Lanczos solve of the same Y_(n), mode by mode, at C = ∏_{t≠n} R_t
// columns on both sides of the per-rank bound (C = 32·R_n, mode 0 of
// ranks 5,10,16 and 5,10,17) and of the cap on C alone (256, ranks
// 16,16,16 and 17,17,17). The tensor has the netflix preset's mode sizes
// at a quarter of its nonzeros, so its modes' Y_(n) run from thousands
// of rows down to a few dozen. Y_(n) is the product with the factors
// after one HOOI sweep, as in a steady-state sweep, in the split order
// of a mode whose singleton census takes the split Gram (split=true),
// whose compact singleton rows the Gram solve then reads; Lanczos reads
// them written out C wide. The sub-benchmark's name says which solver
// the rule picks.
func BenchmarkSVDRule(b *testing.B) {
	x := gen.Random(gen.Config{Dims: []int{9600, 340, 40}, NNZ: 50000, Skew: 0.7, Seed: 42})
	sym := symbolic.Build(x, 0)
	for _, ranks := range [][]int{
		{10, 10, 10}, {5, 10, 16}, {5, 10, 17}, {16, 16, 16}, {17, 17, 17}, {20, 20, 20},
	} {
		res, err := core.Decompose(x, core.Options{Ranks: ranks, MaxIters: 1, Tol: -1, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		// The Gram solve is the split one wherever its census takes the
		// split, its singleton rows compact, as an engine's would be if the
		// rule sent the mode to Gram; Lanczos reads the same rows written
		// out C wide, as an engine's Lanczos mode holds them.
		kern := ttm.NewFlat(x, sym)
		for n, rank := range ranks {
			cen, kron := kern.SplitSingletons(n, ranks)
			y := dense.NewMatrix(sym.Modes[n].NumRows(), ttm.RowSize(res.Factors, n))
			gram := &trsvd.DenseOperator{A: y, Kron: kron}
			if kron != nil {
				kron.U = res.Factors[cen.Group]
				kron.T = *dense.NewMatrix(cen.Singletons, y.Cols/ranks[cen.Group])
				y.Rows -= cen.Singletons
				y.Data = y.Data[:y.Rows*y.Cols]
			}
			kern.TTMc(y, n, res.Factors, 0)
			lanczos := gram
			if kron != nil {
				lanczos = &trsvd.DenseOperator{A: kron.Materialize(y)}
			}
			rule := core.ResolveSVD(core.SVDAuto, y.Cols, rank)
			for _, solver := range []struct {
				name  string
				solve func(trsvd.Operator, int, trsvd.Options) (*trsvd.Result, error)
			}{{"gram", trsvd.Gram}, {"lanczos", trsvd.Lanczos}} {
				name := fmt.Sprintf("ranks=%d,%d,%d/mode=%d,rows=%d,C=%d,split=%v,rule=%v/%s", ranks[0], ranks[1], ranks[2], n, gram.LocalRows(), y.Cols, cen.Taken(), rule, solver.name)
				b.Run(name, func(b *testing.B) {
					// A sweep's solves reuse one workspace; the first solve
					// grows it, untimed.
					op := gram
					if solver.name == "lanczos" {
						op = lanczos
					}
					opts := trsvd.Options{Seed: 1, Work: trsvd.NewWorkspace()}
					r, err := solver.solve(op, rank, opts)
					if err != nil {
						b.Fatal(err)
					}
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						if r, err = solver.solve(op, rank, opts); err != nil {
							b.Fatal(err)
						}
					}
					b.ReportMetric(float64(r.Passes), "passes/solve")
				})
			}
		}
	}
}

// Partitioning ablation: multilevel hypergraph partitioning time and
// achieved cutsize versus the random baseline.
func BenchmarkAblationPartitionHypergraph(b *testing.B) {
	x := gen.Random(gen.Config{Dims: []int{800, 600, 400}, NNZ: 30000, Skew: 0.6, Seed: 6})
	h := hypergraph.FineGrainModel(x)
	var cut int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		parts := hypergraph.Partition(h, hypergraph.Options{Parts: 8, Seed: int64(i)})
		cut = h.CutsizeConn(parts, 8)
	}
	b.ReportMetric(float64(cut), "cutsize")
}

func BenchmarkAblationPartitionRandom(b *testing.B) {
	x := gen.Random(gen.Config{Dims: []int{800, 600, 400}, NNZ: 30000, Skew: 0.6, Seed: 6})
	h := hypergraph.FineGrainModel(x)
	var cut int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		parts := hypergraph.PartitionRandom(h.NumV, 8, int64(i))
		cut = h.CutsizeConn(parts, 8)
	}
	b.ReportMetric(float64(cut), "cutsize")
}

// End-to-end shared-memory HOOI throughput on a Netflix-like tensor
// (the per-iteration cost behind Table V).
func BenchmarkHOOIIterationSharedMemory(b *testing.B) {
	x, err := GeneratePreset("netflix", 0.25)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := Decompose(x, Options{Ranks: []int{10, 10, 10}, MaxIters: 1, Tol: -1, Seed: 7})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// Distributed iteration with the best partition (the per-iteration cost
// behind Table II's fine-hp column).
func BenchmarkHOOIIterationDistributed(b *testing.B) {
	x, err := GeneratePreset("netflix", 0.25)
	if err != nil {
		b.Fatal(err)
	}
	part, err := NewPartition(x, 4, FineGrain, PartitionHypergraph, 8)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := DecomposeDistributed(x, part, DistConfig{Ranks: []int{10, 10, 10}, MaxIters: 1, Tol: -1, Seed: 9})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// Lanczos TRSVD on a tall dense matrix (the kernel behind §III.A.2).
func BenchmarkTRSVDKernel(b *testing.B) {
	x, us, sym := ablationSetup()
	sm := &sym.Modes[0]
	y := dense.NewMatrix(sm.NumRows(), ttm.RowSize(us, 0))
	ttm.TTMc(y, x, sm, us, 0)
	op := &trsvd.DenseOperator{A: y, Threads: 0}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := trsvd.Lanczos(op, 10, trsvd.Options{Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// The axpy-family kernels on L1-resident operands, both paths (without
// AVX2, or under -tags purego, the first of each pair is the Go loop
// too). Both go through a function value, so neither is inlined into the
// timing loop: each pays one call, as the assembly always does. The row
// lengths are a rank (5, 10), a Kronecker row of order 4 (25) and of
// order 3 at ranks 10 (100). Axpy4 walks the rows of a small destination
// block, as the SYRK and GEMM tiles that call it do, so one call's adds do
// not wait for the last call's stores; Ger keeps hitting one block, as
// the nonzeros of one TTMc row do.
func BenchmarkKernelAxpy4(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{5, 10, 25, 100} {
		x := randomNormal(4, n, rng)
		y := dense.NewMatrix(8, n)
		for _, k := range []struct {
			name string
			fn   func(a0, a1, a2, a3 float64, x []float64, stride int, y []float64)
		}{{dense.KernelName(), dense.Axpy4}, {"goloop", dense.Axpy4Go}} {
			b.Run(fmt.Sprintf("%s/n=%d", k.name, n), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					k.fn(1e-3, -1e-3, 2e-3, -2e-3, x.Data, n, y.Row(i&7))
				}
				reportGmadds(b, 4*n)
			})
		}
	}
}

func BenchmarkKernelGer(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{5, 10, 25, 100} {
		c := randomNormal(1, n, rng).Data
		x := randomNormal(1, n, rng).Data
		dense.Scal(1e-3, c)
		y := make([]float64, n*n)
		for _, k := range []struct {
			name string
			fn   func(c, x, y []float64)
		}{{dense.KernelName(), dense.Ger}, {"goloop", dense.GerGo}} {
			b.Run(fmt.Sprintf("%s/%dx%d", k.name, n, n), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					k.fn(c, x, y)
				}
				reportGmadds(b, n*n)
			})
		}
	}
}

// The two block passes of the Gram TRSVD at the shapes the order-3 and
// order-4 presets give them: rows that stay in L2 (2048) and a nell-2
// mode's worth (41655), Y_(n) rows of 25, 100 and 125 (order 4 at ranks
// 5). The thread count is
// GOMAXPROCS: go test -run '^$' -bench 'KernelSyrk|KernelGemmNarrow' -cpu 1,2 .
func BenchmarkKernelSyrk(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	for _, rows := range []int{2048, 41655} {
		for _, cols := range []int{25, 100, 125} {
			a := randomNormal(rows, cols, rng)
			g := dense.NewMatrix(cols, cols)
			var work []float64
			b.Run(fmt.Sprintf("%s/%dx%d", dense.KernelName(), rows, cols), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					work = dense.SyrkInto(g, a, work, 0)
				}
				reportGmadds(b, rows*cols*(cols+1)/2)
			})
		}
	}
}

// BenchmarkKernelGemmNarrow is U = Y·V: the Gram solver's second pass at
// ranks 10 (100 -> 10) and the order-4 shape (125 -> 5).
func BenchmarkKernelGemmNarrow(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	for _, rows := range []int{2048, 41655} {
		for _, s := range [][2]int{{100, 10}, {125, 5}} {
			y := randomNormal(rows, s[0], rng)
			v := randomNormal(s[0], s[1], rng)
			u := dense.NewMatrix(rows, s[1])
			b.Run(fmt.Sprintf("%s/%dx%dx%d", dense.KernelName(), rows, s[0], s[1]), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					dense.MatMulInto(u, y, v, 0)
				}
				reportGmadds(b, rows*s[0]*s[1])
			})
		}
	}
}

// BenchmarkTTMcFlat times the run-factored flat kernel on the two
// order-3 presets, per mode, in storage order and with the same nonzeros
// shuffled (every run one entry long: what an unsorted .tns gets), in ns
// per nonzero beside the runs per nonzero it found and the bytes per
// nonzero of list-order index streams the mode's leaf holds (0 where the list is
// the storage order and the streams alias the tensor) — the run and
// stream effects without the benchmark driver. The presets at half scale
// mostly fit in L2; nell3_tall is the benchmark workload of that name
// (640000 x 301 x 127600, 400k nonzeros, seed 1), whose factor-row
// gathers come from beyond it:
// go test -run '^$' -bench TTMcFlat -cpu 1,2 .
func BenchmarkTTMcFlat(b *testing.B) {
	for _, preset := range []string{"netflix", "nell", "nell3_tall"} {
		var sorted *SparseTensor
		var err error
		if preset == "nell3_tall" {
			sorted = gen.Random(gen.Config{Dims: []int{640000, 301, 127600}, NNZ: 400_000, Skew: 0.3, Seed: 1})
		} else if sorted, err = GeneratePreset(preset, 0.5); err != nil {
			b.Fatal(err)
		}
		shuffled := tensor.NewCOO(sorted.Dims, sorted.NNZ())
		coord := make([]int, sorted.Order())
		for _, id := range rand.New(rand.NewSource(1)).Perm(sorted.NNZ()) {
			sorted.Coord(id, coord)
			shuffled.Append(coord, sorted.Val[id])
		}
		us := dist.DefaultInitial(sorted.Dims, []int{10, 10, 10}, 3)
		for _, in := range []struct {
			order string
			x     *SparseTensor
		}{{"sorted", sorted}, {"shuffled", shuffled}} {
			sym := symbolic.Build(in.x, 0)
			flat := ttm.NewFlat(in.x, sym)
			for n := range us {
				y := dense.NewMatrix(sym.Modes[n].NumRows(), ttm.RowSize(us, n))
				// A star over this mode alone copies what its leaf in flat does.
				streamBytes := ttm.NewFlat(in.x, &symbolic.Structure{Modes: sym.Modes[n : n+1]}).StreamBytes()
				b.Run(fmt.Sprintf("%s/%s/mode%d", preset, in.order, n), func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						flat.TTMc(y, n, us, 0)
					}
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(in.x.NNZ()), "ns/nnz")
					b.ReportMetric(flat.RunsPerNZ(n), "runs/nnz")
					b.ReportMetric(float64(streamBytes)/float64(in.x.NNZ()), "B/nnz")
				})
			}
		}
	}
}

// reportGmadds reports the rate of a benchmark whose iteration is madds
// multiply-adds.
func reportGmadds(b *testing.B, madds int) {
	b.ReportMetric(float64(madds)*float64(b.N)/b.Elapsed().Seconds()/1e9, "Gmadd/s")
}

// tnsImage is the netflix preset at half scale (100k nonzeros) and its
// .tns text, the input of the reader and writer benchmarks.
var tnsImage = sync.OnceValues(func() (*SparseTensor, []byte) {
	x, err := GeneratePreset("netflix", 0.5)
	if err != nil {
		panic(err)
	}
	var buf bytes.Buffer
	if err := tensor.WriteTNS(&buf, x); err != nil {
		panic(err)
	}
	return x, buf.Bytes()
})

// File image to COO, the largest one-time cost of a cold solve, in ns
// per nonzero for four spellings of the same values: WriteTNS's 17
// digits and integer counts, which the reader's fast line path takes;
// quarters, most of which lie exactly on a float64 that the fast value
// parse declines, so most lines take the general path; and hex, which
// only strconv reads, so that every line takes it. The file case is the
// g17 image read from a file by ReadTNSFile, as a solve reads its
// input, with the heap handed back to the OS before every read (timer
// stopped), so that each read faults in its memory afresh:
// go test -run '^$' -bench ReadTNS -cpu 1,2 .
func BenchmarkReadTNS(b *testing.B) {
	x, g17 := tnsImage()
	for _, in := range []struct {
		name string
		img  []byte
	}{
		{"g17", g17},
		{"short", tnsSpelled(x, func(dst []byte, v float64) []byte {
			return strconv.AppendFloat(dst, math.Round(4*v)/4, 'g', -1, 64)
		})},
		{"int", tnsSpelled(x, func(dst []byte, v float64) []byte {
			return strconv.AppendInt(dst, int64(math.Ceil(v)), 10)
		})},
		{"hex", tnsSpelled(x, func(dst []byte, v float64) []byte {
			return strconv.AppendFloat(dst, v, 'x', -1, 64)
		})},
	} {
		b.Run(in.name, func(b *testing.B) {
			b.SetBytes(int64(len(in.img)))
			for i := 0; i < b.N; i++ {
				if _, err := tensor.ReadTNS(bytes.NewReader(in.img)); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(x.NNZ()), "ns/nnz")
		})
	}
	b.Run("file", func(b *testing.B) {
		path := filepath.Join(b.TempDir(), "g17.tns")
		if err := os.WriteFile(path, g17, 0o600); err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(len(g17)))
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			debug.FreeOSMemory()
			b.StartTimer()
			if _, err := tensor.ReadTNSFile(path); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(x.NNZ()), "ns/nnz")
	})
}

// tnsSpelled is x's .tns image with every value written by spell.
func tnsSpelled(x *SparseTensor, spell func(dst []byte, v float64) []byte) []byte {
	img := []byte("# dims:")
	for _, d := range x.Dims {
		img = strconv.AppendInt(append(img, ' '), int64(d), 10)
	}
	img = append(img, '\n')
	for i, v := range x.Val {
		for m := range x.Dims {
			img = append(strconv.AppendInt(img, int64(x.Idx[m][i])+1, 10), ' ')
		}
		img = append(spell(img, v), '\n')
	}
	return img
}

func BenchmarkWriteTNS(b *testing.B) {
	x, img := tnsImage()
	b.SetBytes(int64(len(img)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := tensor.WriteTNS(io.Discard, x); err != nil {
			b.Fatal(err)
		}
	}
}

// The initial factors the engine draws on the benchmark workloads'
// shapes (every mode but mode 0, which it never draws): the
// counter-based fill and its Gram whitening. The thread count is
// GOMAXPROCS:
// go test -run '^$' -bench InitialFactors -cpu 1,2 .
func BenchmarkInitialFactors(b *testing.B) {
	for _, w := range []struct {
		name        string
		dims, ranks []int
	}{
		{"netflix3", []int{3400, 400}, []int{10, 10}},
		{"nell3_tall", []int{301, 127600}, []int{10, 10}},
		{"delicious4", []int{20000, 400000, 60000}, []int{5, 5, 5}},
	} {
		b.Run(w.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				core.InitialFactors(w.dims, w.ranks, 1, 0)
			}
		})
	}
}

// The Gram solver's eigenproblem at the shapes it meets, for the R_n
// leading eigenpairs it keeps: order 3 at ranks 5 (25 columns) and 10
// (100), order 4 at ranks 5 (125). G is a random Gram matrix of full rank:
// go test -run '^$' -bench SymEig -cpu 1 .
func BenchmarkSymEig(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	for _, s := range [][2]int{{25, 5}, {100, 10}, {125, 5}} {
		a := randomNormal(4*s[0], s[0], rng)
		g := dense.MatMulTA(a, a, 1)
		var wk dense.SVDWork
		b.Run(fmt.Sprintf("n=%d/k=%d", s[0], s[1]), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				wk.SymEig(g, s[1])
			}
		})
	}
}
