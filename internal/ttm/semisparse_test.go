package ttm

import (
	"math"
	"math/rand"
	"testing"

	"hypertensor/internal/dense"
	"hypertensor/internal/tensor"
)

func TestFromCOORoundtrip(t *testing.T) {
	x := tensor.NewCOO([]int{3, 4, 5}, 2)
	x.Append([]int{0, 1, 2}, 1.5)
	x.Append([]int{2, 3, 4}, -2)
	s := FromCOO(x)
	if s.NEntries() != 2 || s.BlockSize != 1 {
		t.Fatalf("entries=%d block=%d", s.NEntries(), s.BlockSize)
	}
	if s.Block(0)[0] != 1.5 || s.Block(1)[0] != -2 {
		t.Fatal("blocks wrong")
	}
	if len(s.SparseModes) != 3 {
		t.Fatal("all modes should be sparse")
	}
}

func TestContractMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	dims := []int{4, 5, 3}
	x := tensor.NewCOO(dims, 0)
	coord := make([]int, 3)
	for i := 0; i < 25; i++ {
		for m := range coord {
			coord[m] = rng.Intn(dims[m])
		}
		x.Append(coord, rng.NormFloat64())
	}
	x.SortDedup()
	u1 := dense.RandomNormal(5, 2, rng)

	s := FromCOO(x).Contract(1, u1)
	if s.BlockSize != 2 {
		t.Fatalf("block size %d", s.BlockSize)
	}
	// Dense reference: Z[i, q, k] = sum_j X[i,j,k] * U1[j,q].
	xd := tensor.DenseFromCOO(x)
	for e := 0; e < s.NEntries(); e++ {
		i := int(s.Keys[0][e])
		k := int(s.Keys[2][e])
		for q := 0; q < 2; q++ {
			var want float64
			for j := 0; j < 5; j++ {
				want += xd.At(i, j, k) * u1.At(j, q)
			}
			if got := s.Block(e)[q]; math.Abs(got-want) > 1e-12 {
				t.Fatalf("entry (%d,%d) q=%d: %v want %v", i, k, q, got, want)
			}
		}
	}
}

func TestContractMergesFibers(t *testing.T) {
	// Two nonzeros in the same mode-1 fiber must merge into one entry.
	x := tensor.NewCOO([]int{2, 3, 2}, 2)
	x.Append([]int{1, 0, 1}, 2)
	x.Append([]int{1, 2, 1}, 3)
	u := dense.FromRows([][]float64{{1, 0}, {0, 1}, {1, 1}})
	s := FromCOO(x).Contract(1, u)
	if s.NEntries() != 1 {
		t.Fatalf("expected 1 merged entry, got %d", s.NEntries())
	}
	// Block = 2*U(0,:) + 3*U(2,:) = (2+3*1, 3*1) = (5, 3).
	if s.Block(0)[0] != 5 || s.Block(0)[1] != 3 {
		t.Fatalf("merged block = %v", s.Block(0))
	}
}

func TestContractInvalidModePanics(t *testing.T) {
	x := tensor.NewCOO([]int{2, 2}, 1)
	x.Append([]int{0, 0}, 1)
	s := FromCOO(x).Contract(0, dense.Identity(2))
	defer func() {
		if recover() == nil {
			t.Fatal("contracting a dense mode should panic")
		}
	}()
	s.Contract(0, dense.Identity(2))
}

func TestMatricizeRowsSortedAndComplete(t *testing.T) {
	x := tensor.NewCOO([]int{5, 3}, 3)
	x.Append([]int{4, 0}, 1)
	x.Append([]int{0, 1}, 2)
	x.Append([]int{2, 2}, 3)
	s := FromCOO(x).Contract(1, dense.FromRows([][]float64{{1}, {1}, {1}}))
	rows, y := s.MatricizeRows(0)
	if len(rows) != 3 || y.Rows != 3 || y.Cols != 1 {
		t.Fatalf("shape: %d rows, %dx%d", len(rows), y.Rows, y.Cols)
	}
	wantRows := []int32{0, 2, 4}
	wantVals := []float64{2, 3, 1}
	for i := range wantRows {
		if rows[i] != wantRows[i] || y.At(i, 0) != wantVals[i] {
			t.Fatalf("row %d: (%d, %v), want (%d, %v)", i, rows[i], y.At(i, 0), wantRows[i], wantVals[i])
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("MatricizeRows with two sparse modes should panic")
		}
	}()
	FromCOO(x).MatricizeRows(0)
}
