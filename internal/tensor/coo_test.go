package tensor

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewCOOValidation(t *testing.T) {
	for _, dims := range [][]int{{}, {0}, {3, -1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewCOO(%v) did not panic", dims)
				}
			}()
			NewCOO(dims, 0)
		}()
	}
}

func TestAppendAndCoord(t *testing.T) {
	x := NewCOO([]int{4, 5, 6}, 2)
	x.Append([]int{1, 2, 3}, 7.5)
	x.Append([]int{0, 4, 5}, -1)
	if x.NNZ() != 2 || x.Order() != 3 {
		t.Fatalf("NNZ=%d Order=%d", x.NNZ(), x.Order())
	}
	c := x.Coord(0, make([]int, 3))
	if c[0] != 1 || c[1] != 2 || c[2] != 3 {
		t.Fatalf("Coord = %v", c)
	}
	if err := x.AppendChecked([]int{4, 0, 0}, 1); err == nil {
		t.Fatal("out-of-range coordinate accepted")
	}
	if err := x.AppendChecked([]int{1, 1}, 1); err == nil {
		t.Fatal("wrong-order coordinate accepted")
	}
}

func TestNorm(t *testing.T) {
	x := NewCOO([]int{10, 10}, 3)
	x.Append([]int{0, 0}, 3)
	x.Append([]int{1, 1}, 4)
	for _, threads := range []int{1, 4} {
		if got := x.Norm(threads); math.Abs(got-5) > 1e-12 {
			t.Fatalf("Norm(threads=%d) = %v, want 5", threads, got)
		}
	}
}

// Norms whose squares leave the float64 range: four values of 1e200 (the
// file cmd/hooi's TestNonFiniteFitIsAnError reads) have ‖X‖ = 2e200,
// four of 1e-170 have 2e-170, and four subnormals of 1e-310 have 2e-310
// — where the plain sum of squares is +Inf or 0 — for the sparse and the
// dense tensor alike and at any thread count. An infinite value keeps an
// infinite norm, a NaN a NaN, and an in-range tensor the plain sum's bits.
func TestNormOutOfRange(t *testing.T) {
	for _, tc := range []struct{ v, want float64 }{
		{1e200, 2e200}, {-1e200, 2e200}, {1e-170, 2e-170}, {1e-310, 2e-310},
		{math.Inf(-1), math.Inf(1)}, {math.NaN(), math.NaN()}, {0, 0}, {3, 6},
	} {
		x := NewCOO([]int{3, 3, 3}, 4)
		d := NewDense([]int{3, 3, 3})
		for i, c := range [][]int{{0, 0, 0}, {1, 1, 1}, {2, 2, 2}, {0, 1, 2}} {
			x.Append(c, tc.v)
			d.Set(tc.v, c...)
			if i == 0 && tc.v == 3 {
				x.Val[0], d.Data[0] = 3*(1+0x1p-52), 3*(1+0x1p-52)
			}
		}
		want := tc.want
		if tc.v == 3 {
			want = math.Sqrt(x.Val[0]*x.Val[0] + 9 + 9 + 9) // the plain sum, in order
		}
		for _, got := range []float64{x.Norm(1), x.Norm(4), d.Norm()} {
			ok := math.Abs(got-want) <= 1e-15*want || got == want || (math.IsNaN(want) && math.IsNaN(got))
			if tc.v == 3 {
				ok = math.Float64bits(got) == math.Float64bits(want)
			}
			if !ok {
				t.Errorf("values %g: norm %g, want %g", tc.v, got, want)
			}
		}
	}
}

func TestSortDedup(t *testing.T) {
	x := NewCOO([]int{3, 3}, 5)
	x.Append([]int{2, 2}, 1)
	x.Append([]int{0, 1}, 2)
	x.Append([]int{2, 2}, 3)
	x.Append([]int{0, 1}, -2) // cancels the earlier (0,1) entry
	x.Append([]int{1, 0}, 5)
	x.SortDedup()
	if x.NNZ() != 2 {
		t.Fatalf("NNZ after dedup = %d, want 2", x.NNZ())
	}
	// Sorted lexicographically: (1,0) then (2,2).
	if x.Idx[0][0] != 1 || x.Idx[1][0] != 0 || x.Val[0] != 5 {
		t.Fatalf("first entry wrong: (%d,%d)=%v", x.Idx[0][0], x.Idx[1][0], x.Val[0])
	}
	if x.Idx[0][1] != 2 || x.Idx[1][1] != 2 || x.Val[1] != 4 {
		t.Fatalf("second entry wrong: (%d,%d)=%v", x.Idx[0][1], x.Idx[1][1], x.Val[1])
	}
}

// Property: SortDedup preserves the dense equivalent of the tensor.
func TestSortDedupPreservesDense(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		dims := []int{2 + rng.Intn(4), 2 + rng.Intn(4), 2 + rng.Intn(4)}
		x := NewCOO(dims, 0)
		n := rng.Intn(50)
		for i := 0; i < n; i++ {
			x.Append([]int{rng.Intn(dims[0]), rng.Intn(dims[1]), rng.Intn(dims[2])}, float64(1+rng.Intn(5)))
		}
		before := DenseFromCOO(x)
		x.SortDedup()
		after := DenseFromCOO(x)
		for i := range before.Data {
			if math.Abs(before.Data[i]-after.Data[i]) > 1e-12 {
				return false
			}
		}
		// No duplicates remain.
		seen := map[uint64]bool{}
		for i := 0; i < x.NNZ(); i++ {
			k := x.key(i, []int{0, 1, 2})
			if seen[k] {
				return false
			}
			seen[k] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestModeCountsAndNonEmpty(t *testing.T) {
	x := NewCOO([]int{4, 2}, 3)
	x.Append([]int{0, 0}, 1)
	x.Append([]int{0, 1}, 1)
	x.Append([]int{3, 1}, 1)
	counts := x.ModeCounts(0)
	if counts[0] != 2 || counts[1] != 0 || counts[3] != 1 {
		t.Fatalf("ModeCounts = %v", counts)
	}
	if x.NonEmptySlices(0) != 2 || x.NonEmptySlices(1) != 2 {
		t.Fatalf("NonEmptySlices = %d, %d", x.NonEmptySlices(0), x.NonEmptySlices(1))
	}
}

func TestSubset(t *testing.T) {
	x := NewCOO([]int{5, 5}, 3)
	x.Append([]int{0, 0}, 1)
	x.Append([]int{1, 1}, 2)
	x.Append([]int{2, 2}, 3)
	s := x.Subset([]int32{2, 0})
	if s.NNZ() != 2 || s.Val[0] != 3 || s.Val[1] != 1 {
		t.Fatalf("Subset wrong: %v", s.Val)
	}
	if s.Idx[0][0] != 2 || s.Idx[1][1] != 0 {
		t.Fatal("Subset indices wrong")
	}
}

func TestCloneIndependence(t *testing.T) {
	x := NewCOO([]int{2, 2}, 1)
	x.Append([]int{1, 1}, 9)
	c := x.Clone()
	c.Val[0] = 0
	c.Idx[0][0] = 0
	if x.Val[0] != 9 || x.Idx[0][0] != 1 {
		t.Fatal("Clone aliases original")
	}
}

func TestDensityString(t *testing.T) {
	x := NewCOO([]int{10, 10}, 1)
	x.Append([]int{0, 0}, 1)
	if got := x.Density(); math.Abs(got-0.01) > 1e-15 {
		t.Fatalf("Density = %v", got)
	}
	if x.String() == "" {
		t.Fatal("empty String()")
	}
}
