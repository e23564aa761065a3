package ttm

import (
	"math"
	"math/rand"
	"testing"

	"hypertensor/internal/dense"
	"hypertensor/internal/symbolic"
	"hypertensor/internal/tensor"
)

// altoSetup builds a random tensor in both COO (for the dense
// reference) and ALTO form, with factors and the symbolic structure of
// the ALTO storage order.
func altoSetup(rng *rand.Rand, dims, ranks []int, nnz int) (*tensor.COO, *tensor.ALTO, []*dense.Matrix, *symbolic.Structure) {
	x := tensor.NewCOO(dims, nnz)
	coord := make([]int, len(dims))
	for i := 0; i < nnz; i++ {
		for m := range coord {
			coord[m] = rng.Intn(dims[m])
		}
		x.Append(coord, rng.NormFloat64())
	}
	x.SortDedup()
	a := tensor.NewALTO(x, tensor.ALTOOptions{})
	u := make([]*dense.Matrix, len(dims))
	for m := range u {
		u[m] = dense.RandomNormal(dims[m], ranks[m], rng)
	}
	return x, a, u, symbolic.Build(a, 1)
}

func TestAltoSplitBounds(t *testing.T) {
	for _, n := range []int{1, 10, 4095, 4096, 8192, 100000, 1 << 20} {
		b := altoSplitBounds(n)
		if b[0] != 0 || int(b[len(b)-1]) != n {
			t.Fatalf("n=%d: bounds %v do not cover [0,n)", n, b)
		}
		if len(b)-1 > 64 {
			t.Fatalf("n=%d: %d blocks exceeds the 64-block cap", n, len(b)-1)
		}
		for i := 1; i < len(b); i++ {
			if b[i] < b[i-1] {
				t.Fatalf("n=%d: bounds not monotone: %v", n, b)
			}
		}
		blocks := len(b) - 1
		if blocks > 1 && n/blocks < 4096 {
			t.Fatalf("n=%d: %d blocks leaves %d nnz per block", n, blocks, n/blocks)
		}
	}
	if len(altoSplitBounds(10))-1 != 1 {
		t.Fatal("tiny range should be one block")
	}
}

func TestALTOTTMcMatchesDenseReference(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	cases := []struct {
		dims, ranks []int
		nnz         int
	}{
		{[]int{5, 6}, []int{2, 3}, 12},
		{[]int{4, 5, 6}, []int{2, 3, 2}, 30},
		{[]int{3, 4, 5, 2}, []int{2, 2, 3, 2}, 25},
	}
	for _, tc := range cases {
		x, a, u, sym := altoSetup(rng, tc.dims, tc.ranks, tc.nnz)
		k := NewALTOTTMc(a, sym)
		for mode := 0; mode < a.Order(); mode++ {
			sm := &sym.Modes[mode]
			ref := denseTTMcRef(x, mode, u)
			for _, threads := range []int{1, 3} {
				y := dense.NewMatrix(sm.NumRows(), RowSize(u, mode))
				k.TTMc(y, mode, u, threads)
				for r, row := range sm.Rows {
					for c := 0; c < y.Cols; c++ {
						if math.Abs(y.At(r, c)-ref.At(int(row), c)) > 1e-10 {
							t.Fatalf("dims=%v mode=%d threads=%d: Y(%d,%d) = %v, want %v",
								tc.dims, mode, threads, row, c, y.At(r, c), ref.At(int(row), c))
						}
					}
				}
			}
		}
	}
}

func TestALTOTTMcBitwiseAcrossThreadsAndSchedules(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	// Large enough that the block grid actually splits (>= 2*4096 nnz).
	_, a, u, sym := altoSetup(rng, []int{60, 50, 40}, []int{4, 3, 5}, 12000)
	k := NewALTOTTMc(a, sym)
	for mode := 0; mode < a.Order(); mode++ {
		sm := &sym.Modes[mode]
		var want []float64
		for _, threads := range []int{1, 2, 4, 8} {
			y := dense.NewMatrix(sm.NumRows(), RowSize(u, mode))
			k.TTMc(y, mode, u, threads)
			if want == nil {
				want = append([]float64(nil), y.Data...)
				continue
			}
			for i := range want {
				if y.Data[i] != want[i] {
					t.Fatalf("mode=%d threads=%d: bit drift at %d", mode, threads, i)
				}
			}
		}
	}
}

func TestALTOTTMcOwnerPathMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	// A long mode 0 (dim 1<<20) forces the owner-computes path there
	// (blocks x dim x rowSize over the accumulator budget) while the
	// short modes stay on the dense-slab path; both must agree with the
	// flat kernel over the identical storage order.
	dims := []int{1 << 20, 6, 5}
	ranks := []int{3, 2, 2}
	_, a, u, sym := altoSetup(rng, dims, ranks, 9000)
	k := NewALTOTTMc(a, sym)
	if k.useDense(0, RowSize(u, 0)) {
		t.Fatal("mode 0 should take the owner-computes path")
	}
	if !k.useDense(1, RowSize(u, 1)) || !k.useDense(2, RowSize(u, 2)) {
		t.Fatal("short modes should take the dense-slab path")
	}
	flat := a.ToCOO() // same storage order as the symbolic structure
	for mode := 0; mode < a.Order(); mode++ {
		sm := &sym.Modes[mode]
		ref := dense.NewMatrix(sm.NumRows(), RowSize(u, mode))
		TTMc(ref, flat, sm, u, 1)
		for _, threads := range []int{1, 4} {
			y := dense.NewMatrix(sm.NumRows(), RowSize(u, mode))
			k.TTMc(y, mode, u, threads)
			for i := range y.Data {
				if math.Abs(y.Data[i]-ref.Data[i]) > 1e-10 {
					t.Fatalf("mode=%d threads=%d: diverged from flat kernel at %d: %v vs %v",
						mode, threads, i, y.Data[i], ref.Data[i])
				}
			}
		}
	}
	// The owner path itself must be bitwise thread invariant.
	sm := &sym.Modes[0]
	var want []float64
	for _, threads := range []int{1, 2, 8} {
		y := dense.NewMatrix(sm.NumRows(), RowSize(u, 0))
		k.TTMc(y, 0, u, threads)
		if want == nil {
			want = append([]float64(nil), y.Data...)
			continue
		}
		for i := range want {
			if y.Data[i] != want[i] {
				t.Fatalf("owner path: threads=%d bit drift at %d", threads, i)
			}
		}
	}
}

func TestALTOTTMcFlops(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	_, a, u, sym := altoSetup(rng, []int{10, 9, 8}, []int{3, 3, 3}, 200)
	k := NewALTOTTMc(a, sym)
	sm := &sym.Modes[1]
	y := dense.NewMatrix(sm.NumRows(), RowSize(u, 1))
	k.TTMc(y, 1, u, 1)
	if got, want := k.Flops(), Flops(a.NNZ(), RowSize(u, 1)); got != want {
		t.Fatalf("flops %d, want %d", got, want)
	}
	if k.NumRows(1) != sm.NumRows() || &k.Rows(1)[0] != &sm.Rows[0] {
		t.Fatal("NumRows/Rows do not expose the symbolic mode")
	}
}

func TestALTOTTMcPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	_, a, u, sym := altoSetup(rng, []int{8, 7, 6}, []int{2, 2, 2}, 100)
	k := NewALTOTTMc(a, sym)
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("bad output shape", func() {
		k.TTMc(dense.NewMatrix(1, 1), 0, u, 1)
	})
	mustPanic("order-1 tensor", func() {
		one := tensor.NewCOO([]int{5}, 1)
		one.Append([]int{2}, 1)
		NewALTOTTMc(tensor.NewALTO(one, tensor.ALTOOptions{}), symbolic.Build(tensor.NewALTO(one, tensor.ALTOOptions{}), 1))
	})
	mustPanic("empty tensor", func() {
		empty := tensor.NewALTO(tensor.NewCOO([]int{5, 5}, 0), tensor.ALTOOptions{})
		NewALTOTTMc(empty, symbolic.Build(empty, 1))
	})
}
