package ttm

import (
	"math"
	"math/rand"
	"testing"

	"hypertensor/internal/dense"
	"hypertensor/internal/symbolic"
	"hypertensor/internal/tensor"
)

func TestCSFTTMcMatchesDenseReference(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	cases := []struct {
		dims, ranks []int
		nnz         int
		order       []int // storage mode order (nil = default)
	}{
		{[]int{5, 6}, []int{2, 3}, 12, nil},
		{[]int{5, 6}, []int{2, 3}, 12, []int{1, 0}},
		{[]int{4, 5, 6}, []int{2, 3, 2}, 30, nil},
		{[]int{4, 5, 6}, []int{2, 3, 2}, 30, []int{2, 0, 1}},
		{[]int{3, 4, 5, 2}, []int{2, 2, 3, 2}, 25, nil},
		{[]int{3, 4, 5, 2}, []int{2, 2, 3, 2}, 25, []int{3, 1, 2, 0}},
	}
	for _, tc := range cases {
		x, u, _ := randomSetup(rng, tc.dims, tc.ranks, tc.nnz)
		c := tensor.NewCSF(x, tensor.CSFOptions{ModeOrder: tc.order})
		k := NewCSFTTMc(c)
		for mode := 0; mode < x.Order(); mode++ {
			ref := denseTTMcRef(x, mode, u)
			for _, threads := range []int{1, 3} {
				y := dense.NewMatrix(k.NumRows(mode), RowSize(u, mode))
				k.TTMc(y, mode, u, threads)
				for r, row := range k.Rows(mode) {
					for cc := 0; cc < y.Cols; cc++ {
						if math.Abs(y.At(r, cc)-ref.At(int(row), cc)) > 1e-10 {
							t.Fatalf("dims=%v order=%v mode=%d threads=%d: Y(%d,%d) = %v, want %v",
								tc.dims, tc.order, mode, threads, row, cc, y.At(r, cc), ref.At(int(row), cc))
						}
					}
				}
			}
		}
	}
}

func TestCSFTTMcMatchesFlatKernel(t *testing.T) {
	// The CSF kernel must produce the same compact rows (same row set,
	// same order) as the flat coordinate kernel over the CSF-order
	// symbolic structure.
	rng := rand.New(rand.NewSource(33))
	x, u, _ := randomSetup(rng, []int{12, 9, 7, 5}, []int{3, 2, 2, 3}, 220)
	c := tensor.NewCSF(x, tensor.CSFOptions{})
	sym := symbolicBuildForTest(c)
	k := NewCSFTTMc(c)
	flatX := c.ToCOO()
	for mode := 0; mode < x.Order(); mode++ {
		sm := &sym.Modes[mode]
		if k.NumRows(mode) != sm.NumRows() {
			t.Fatalf("mode %d: %d rows vs symbolic %d", mode, k.NumRows(mode), sm.NumRows())
		}
		for r := range sm.Rows {
			if k.Rows(mode)[r] != sm.Rows[r] {
				t.Fatalf("mode %d: row order diverges at %d", mode, r)
			}
		}
		yc := dense.NewMatrix(sm.NumRows(), RowSize(u, mode))
		yf := dense.NewMatrix(sm.NumRows(), RowSize(u, mode))
		k.TTMc(yc, mode, u, 2)
		TTMc(yf, flatX, sm, u, 2)
		for i := range yc.Data {
			if math.Abs(yc.Data[i]-yf.Data[i]) > 1e-10 {
				t.Fatalf("mode %d: CSF kernel diverges from flat at %d: %v vs %v",
					mode, i, yc.Data[i], yf.Data[i])
			}
		}
	}
}

func TestCSFTTMcDeterministicAcrossThreads(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	x, u, _ := randomSetup(rng, []int{30, 20, 25}, []int{4, 3, 5}, 400)
	c := tensor.NewCSF(x, tensor.CSFOptions{})
	for mode := 0; mode < x.Order(); mode++ {
		k1 := NewCSFTTMc(c)
		k4 := NewCSFTTMc(c)
		y1 := dense.NewMatrix(k1.NumRows(mode), RowSize(u, mode))
		y4 := dense.NewMatrix(k4.NumRows(mode), RowSize(u, mode))
		k1.TTMc(y1, mode, u, 1)
		k4.TTMc(y4, mode, u, 4)
		for i := range y1.Data {
			if y1.Data[i] != y4.Data[i] {
				t.Fatalf("mode %d: thread count changed bits at %d", mode, i)
			}
		}
	}
}

func TestCSFTTMcFewerFlopsThanFlat(t *testing.T) {
	// On a compressible tensor the fiber walk must do strictly fewer
	// multiply-adds than the per-nonzero flat kernel.
	x, u, _ := randomSetup(rand.New(rand.NewSource(36)), []int{4, 40, 50}, []int{3, 4, 4}, 1500)
	c := tensor.NewCSF(x, tensor.CSFOptions{})
	k := NewCSFTTMc(c)
	var flat int64
	for mode := 0; mode < x.Order(); mode++ {
		y := dense.NewMatrix(k.NumRows(mode), RowSize(u, mode))
		k.TTMc(y, mode, u, 2)
		flat += Flops(c.NNZ(), RowSize(u, mode))
	}
	if k.Flops() >= flat {
		t.Fatalf("CSF flops %d not below flat %d", k.Flops(), flat)
	}
	k.ResetFlops()
	if k.Flops() != 0 {
		t.Fatal("ResetFlops broken")
	}
}

func TestDTreeOverCSF(t *testing.T) {
	// The dimension tree must work unchanged over a CSF tensor (it
	// consumes the expanded mode streams) and agree with the flat
	// kernel on the same storage order.
	rng := rand.New(rand.NewSource(37))
	x, u, _ := randomSetup(rng, []int{8, 7, 6, 5}, []int{2, 3, 2, 2}, 150)
	c := tensor.NewCSF(x, tensor.CSFOptions{})
	sym := symbolicBuildForTest(c)
	tree := NewDTree(c)
	flatX := c.ToCOO()
	for mode := 0; mode < x.Order(); mode++ {
		sm := &sym.Modes[mode]
		yt := dense.NewMatrix(tree.NumRows(mode), RowSize(u, mode))
		yf := dense.NewMatrix(sm.NumRows(), RowSize(u, mode))
		tree.TTMc(yt, mode, u, 2)
		TTMc(yf, flatX, sm, u, 2)
		if yt.Rows != yf.Rows {
			t.Fatalf("mode %d: row counts differ", mode)
		}
		for i := range yt.Data {
			if math.Abs(yt.Data[i]-yf.Data[i]) > 1e-10 {
				t.Fatalf("mode %d: dtree-over-CSF diverges at %d", mode, i)
			}
		}
	}
}

// symbolicBuildForTest builds the symbolic structure for a CSF tensor.
func symbolicBuildForTest(c *tensor.CSF) *symbolic.Structure { return symbolic.Build(c, 1) }
