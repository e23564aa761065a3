package trsvd

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"testing"

	"hypertensor/internal/dense"
)

// splitCase is a DenseOperator whose rows past multi are grouped
// Kronecker products held compactly (dense.KronRows).
type splitCase struct {
	name  string
	multi int
	sizes []int // rows per group
	rg, c int
	slow  bool
	zero  int // a group whose u is zero, or -1
}

func (sc splitCase) build(rng *rand.Rand) *DenseOperator {
	singles := 0
	for _, s := range sc.sizes {
		singles += s
	}
	u := randomNormal(2*len(sc.sizes)+1, sc.rg, rng)
	k := &dense.KronRows{Ptr: []int32{0}, U: u, T: *randomNormal(singles, sc.c, rng), Slow: sc.slow}
	for j, s := range sc.sizes {
		k.Idx = append(k.Idx, int32(2*j+1))
		k.Ptr = append(k.Ptr, k.Ptr[j]+int32(s))
		if j == sc.zero {
			clear(u.Row(2*j + 1))
		}
	}
	return &DenseOperator{A: randomNormal(sc.multi, sc.rg*sc.c, rng), Kron: k}
}

var splitCases = []splitCase{
	{"g slow", 120, []int{5, 1, 9, 2, 40, 3, 7, 1, 1, 12}, 10, 10, true, -1},
	{"g fast", 120, []int{5, 1, 9, 2, 40, 3, 7, 1, 1, 12}, 10, 10, false, -1},
	{"group of one", 60, []int{1}, 4, 5, false, -1},
	{"zero u_j row", 64, []int{6, 11, 3, 25}, 5, 4, true, 2},
	{"every row a singleton", 0, []int{20, 1, 33, 4, 4, 17, 2, 60}, 5, 4, false, -1},
	{"no singleton", 150, nil, 6, 5, true, -1},
	// Past the kernels' serial cutoffs, over several reduction blocks of
	// groups.
	{"many groups", 300, []int{3, 9, 1, 6, 2, 8, 5, 7, 4, 4, 6, 1, 9, 2, 3, 5, 8, 7, 6, 1,
		2, 9, 4, 3, 7, 5, 6, 8, 1, 2, 3, 9, 4, 6, 5, 7, 8, 2, 1, 3, 9, 4, 6, 5, 7, 2, 3, 8, 1, 4,
		6, 9, 5, 7, 2, 8, 3, 1, 4, 6, 9, 5, 2, 7, 3, 8, 1, 6, 4, 5}, 10, 10, false, 11},
}

// applyAll runs every Operator method of op on fixed operands drawn from
// seed and returns the results in method order: LocalRows and Cols (as
// one-element slices), MatVec, MatTVec, MatMat, MatTMat, RowGram, Gram.
func applyAll(op Operator, seed int64) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	rows, cols := op.LocalRows(), op.Cols()
	x, yv := randomNormal(cols, 1, rng).Data, randomNormal(rows, 1, rng).Data
	w, y := randomNormal(cols, 10, rng), randomNormal(rows, 10, rng)
	ax, aty := make([]float64, rows), make([]float64, cols)
	aw, aty10, yty, g := dense.NewMatrix(rows, 10), dense.NewMatrix(cols, 10), dense.NewMatrix(10, 10), dense.NewMatrix(cols, cols)
	ax[0], aty[0], aw.Data[0], aty10.Data[0], g.Data[0] = 9, 9, 9, 9, 9 // each is overwritten
	op.MatVec(x, ax)
	op.MatTVec(yv, aty)
	op.MatMat(w, aw)
	op.MatTMat(y, aty10)
	op.RowGram(y, yty)
	op.Gram(g, nil)
	return [][]float64{{float64(rows)}, {float64(cols)}, ax, aty, aw.Data, aty10.Data, yty.Data, g.Data}
}

var methodNames = []string{"LocalRows", "Cols", "MatVec", "MatTVec", "MatMat", "MatTMat", "RowGram", "Gram"}

// A DenseOperator with Kron is, method for method, the plain
// DenseOperator on the matrix it describes written out C wide: within
// 1e-13 of the largest entry, on every kernel path the host has, for g
// slow and fast, a group of one, a zero u_j row, every row a singleton
// and none.
func TestSplitOperatorMatchesMaterialized(t *testing.T) {
	for _, path := range dense.KernelPaths() {
		restore := dense.UseKernelPath(path)
		rng := rand.New(rand.NewSource(53))
		for _, sc := range splitCases {
			op := sc.build(rng)
			op.Threads = 2
			plain := &DenseOperator{A: op.Kron.Materialize(op.A), Threads: 2}
			got, want := applyAll(op, 7), applyAll(plain, 7)
			for m, name := range methodNames {
				var scale, diff float64
				for i, v := range want[m] {
					scale, diff = max(scale, math.Abs(v)), max(diff, math.Abs(got[m][i]-v))
				}
				if diff > 1e-13*scale {
					t.Errorf("%s, %s: %s is off the written-out operator's by %g of its largest entry", path, sc.name, name, diff/scale)
				}
			}
		}
		restore()
	}
}

// Every Operator method of a DenseOperator with Kron gives the same bits
// at 1, 2, 3 and 8 threads.
func TestSplitOperatorBitwiseInvariantAcrossThreads(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	for _, sc := range splitCases {
		op := sc.build(rng)
		var ref []byte
		for _, threads := range []int{1, 2, 3, 8} {
			op.Threads = threads
			var buf bytes.Buffer
			for _, vals := range applyAll(op, 11) {
				binary.Write(&buf, binary.LittleEndian, vals)
			}
			if ref == nil {
				ref = buf.Bytes()
				continue
			}
			if !bytes.Equal(buf.Bytes(), ref) {
				t.Fatalf("%s at %d threads differs from 1 thread", sc.name, threads)
			}
		}
	}
}

// GramMadds and MatMatMadds count the split products as they run: the
// multi rows at full width, the compact rows at c, and the groups' terms.
func TestSplitOperatorMadds(t *testing.T) {
	op := splitCases[0].build(rand.New(rand.NewSource(61)))
	multi, singles, groups := op.A.Rows, op.Kron.T.Rows, len(op.Kron.Idx)
	if got, want := GramMadds(op), int64(multi*5050+singles*55+groups*10000); got != want {
		t.Errorf("GramMadds = %d, want %d", got, want)
	}
	if got, want := MatMatMadds(op, 7), int64((multi*100+singles*10+groups*100)*7); got != want {
		t.Errorf("MatMatMadds = %d, want %d", got, want)
	}
	plain := &DenseOperator{A: op.Kron.Materialize(op.A)}
	if got, want := MatMatMadds(plain, 7), int64((multi+singles)*100*7); got != want || GramMadds(plain) != int64((multi+singles)*5050) {
		t.Errorf("plain operator: MatMatMadds = %d, want %d; GramMadds = %d", got, want, GramMadds(plain))
	}
}

// A DenseOperator without Kron is the plain kernels: every method gives
// their bits, on every kernel path at 1, 2, 3 and 8 threads.
func TestNilKronOperatorIsThePlainKernels(t *testing.T) {
	for _, path := range dense.KernelPaths() {
		restore := dense.UseKernelPath(path)
		rng := rand.New(rand.NewSource(79))
		for _, sc := range splitCases {
			a := sc.build(rng).A
			if a.Rows == 0 {
				continue
			}
			for _, threads := range []int{1, 2, 3, 8} {
				op := &DenseOperator{A: a, Threads: threads}
				got := applyAll(op, 13)
				// applyAll's operands, drawn again, through the plain kernels.
				rng := rand.New(rand.NewSource(13))
				x, yv := randomNormal(a.Cols, 1, rng).Data, randomNormal(a.Rows, 1, rng).Data
				w, y := randomNormal(a.Cols, 10, rng), randomNormal(a.Rows, 10, rng)
				ax, aty := make([]float64, a.Rows), make([]float64, a.Cols)
				aw, aty10, yty, g := dense.NewMatrix(a.Rows, 10), dense.NewMatrix(a.Cols, 10), dense.NewMatrix(10, 10), dense.NewMatrix(a.Cols, a.Cols)
				dense.GemvInto(ax, a, x, threads)
				dense.GemvTInto(aty, a, yv, threads)
				dense.MatMulInto(aw, a, w, threads)
				dense.MatMulTAInto(aty10, a, y, threads)
				dense.MatMulTAInto(yty, y, y, threads)
				dense.SyrkInto(g, a, nil, threads)
				want := [][]float64{{float64(a.Rows)}, {float64(a.Cols)}, ax, aty, aw.Data, aty10.Data, yty.Data, g.Data}
				for m, name := range methodNames {
					for i, v := range want[m] {
						if math.Float64bits(got[m][i]) != math.Float64bits(v) {
							t.Fatalf("%s, %s at %d threads: %s is not the plain kernel's bits", path, sc.name, threads, name)
						}
					}
				}
			}
		}
		restore()
	}
}

// A split operator's MatVec and MatTVec, the Lanczos solver's products,
// allocate nothing once the rows' scratch has grown.
func TestSplitOperatorVectorProductsDoNotAllocate(t *testing.T) {
	op := splitCases[len(splitCases)-1].build(rand.New(rand.NewSource(83)))
	x, y := make([]float64, op.Cols()), make([]float64, op.LocalRows())
	for _, threads := range []int{1, 2} {
		op.Threads = threads
		if n := testing.AllocsPerRun(20, func() {
			op.MatVec(x, y)
			op.MatTVec(y, x)
		}); n != 0 {
			t.Fatalf("threads=%d: MatVec and MatTVec make %v allocations per call, want 0", threads, n)
		}
	}
}
