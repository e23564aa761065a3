package tensor

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestDenseBasics(t *testing.T) {
	d := NewDense([]int{2, 3, 4})
	d.Set(5, 1, 2, 3)
	if d.At(1, 2, 3) != 5 {
		t.Fatal("At/Set roundtrip failed")
	}
	if d.At(0, 0, 0) != 0 {
		t.Fatal("zero init failed")
	}
	if len(d.Data) != 24 {
		t.Fatalf("size = %d", len(d.Data))
	}
	if got := d.Norm(); math.Abs(got-5) > 1e-15 {
		t.Fatalf("Norm = %v", got)
	}
	c := d.Clone()
	c.Set(1, 0, 0, 0)
	if d.At(0, 0, 0) != 0 {
		t.Fatal("Clone aliases")
	}
}

// Property: MatricizeOffset is a bijection between coordinates and
// (row, col) pairs for every mode.
func TestMatricizeOffsetBijection(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		order := 2 + rng.Intn(3)
		dims := make([]int, order)
		size := 1
		for m := range dims {
			dims[m] = 1 + rng.Intn(4)
			size *= dims[m]
		}
		for mode := 0; mode < order; mode++ {
			cols := size / dims[mode]
			seen := make(map[[2]int]bool)
			coord := make([]int, order)
			var rec func(m int) bool
			rec = func(m int) bool {
				if m == order {
					col := MatricizeOffset(dims, mode, coord)
					if col < 0 || col >= cols {
						return false
					}
					key := [2]int{coord[mode], col}
					if seen[key] {
						return false
					}
					seen[key] = true
					return true
				}
				for c := 0; c < dims[m]; c++ {
					coord[m] = c
					if !rec(m + 1) {
						return false
					}
				}
				return true
			}
			if !rec(0) || len(seen) != size {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestMatricizePreservesNorm(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	d := NewDense([]int{3, 4, 5})
	for i := range d.Data {
		d.Data[i] = rng.NormFloat64()
	}
	for mode := 0; mode < 3; mode++ {
		m := d.Matricize(mode)
		if m.Rows != d.Dims[mode] {
			t.Fatalf("mode %d: rows = %d", mode, m.Rows)
		}
		if math.Abs(m.FrobeniusNorm()-d.Norm()) > 1e-12 {
			t.Fatalf("mode %d: matricization changed the norm", mode)
		}
	}
}

func TestMatricizeKnownLayout(t *testing.T) {
	// 2x2x2 tensor with entries encoding their coordinates: x[i,j,k] = ijk
	// as digits. Mode-0 matricization columns enumerate (j,k) with k
	// fastest: (0,0),(0,1),(1,0),(1,1).
	d := NewDense([]int{2, 2, 2})
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			for k := 0; k < 2; k++ {
				d.Set(float64(100*i+10*j+k), i, j, k)
			}
		}
	}
	m := d.Matricize(0)
	want := [][]float64{
		{0, 1, 10, 11},
		{100, 101, 110, 111},
	}
	for i := range want {
		for j := range want[i] {
			if m.At(i, j) != want[i][j] {
				t.Fatalf("X_(0)(%d,%d) = %v, want %v", i, j, m.At(i, j), want[i][j])
			}
		}
	}
}
