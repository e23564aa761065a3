package dense

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// randomNormal fills a new r x c matrix with N(0,1) samples drawn from
// rng: the tests' operands.
func randomNormal(r, c int, rng *rand.Rand) *Matrix {
	m := NewMatrix(r, c)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

func TestMatrixBasics(t *testing.T) {
	m := NewMatrix(2, 3)
	m.Set(0, 0, 1)
	m.Set(1, 2, 5)
	if m.At(0, 0) != 1 || m.At(1, 2) != 5 {
		t.Fatal("At/Set roundtrip failed")
	}
	if len(m.Row(1)) != 3 || m.Row(1)[2] != 5 {
		t.Fatal("Row view wrong")
	}
	c := m.Clone()
	c.Set(0, 0, 9)
	if m.At(0, 0) != 1 {
		t.Fatal("Clone aliases original")
	}
	m.Zero()
	if m.FrobeniusNorm() != 0 {
		t.Fatal("Zero did not clear")
	}
}

func TestFromRowsAndTranspose(t *testing.T) {
	m := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	mt := m.T()
	if mt.Rows != 3 || mt.Cols != 2 {
		t.Fatalf("transpose shape %dx%d", mt.Rows, mt.Cols)
	}
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			if m.At(i, j) != mt.At(j, i) {
				t.Fatalf("transpose mismatch at (%d,%d)", i, j)
			}
		}
	}
	if !m.T().T().Equal(m, 0) {
		t.Fatal("double transpose is not identity")
	}
}

func TestFromRowsRaggedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on ragged rows")
		}
	}()
	FromRows([][]float64{{1, 2}, {3}})
}

func TestIdentity(t *testing.T) {
	id := Identity(4)
	if id.FrobeniusNorm() != 2 {
		t.Fatalf("||I_4||_F = %v, want 2", id.FrobeniusNorm())
	}
}

func TestDotAxpyScalNrm2(t *testing.T) {
	x := []float64{1, 2, 3}
	y := []float64{4, 5, 6}
	if got := Dot(x, y); got != 32 {
		t.Fatalf("Dot = %v, want 32", got)
	}
	Axpy(2, x, y)
	want := []float64{6, 9, 12}
	for i := range y {
		if y[i] != want[i] {
			t.Fatalf("Axpy result %v, want %v", y, want)
		}
	}
	Scal(0.5, y)
	if y[0] != 3 || y[2] != 6 {
		t.Fatalf("Scal result %v", y)
	}
	if got := Nrm2([]float64{3, 4}); math.Abs(got-5) > 1e-15 {
		t.Fatalf("Nrm2 = %v, want 5", got)
	}
	// Scaled accumulation should not overflow.
	big := []float64{1e200, 1e200}
	if got := Nrm2(big); math.IsInf(got, 0) || math.Abs(got-1e200*math.Sqrt2) > 1e186 {
		t.Fatalf("Nrm2 overflow handling broken: %v", got)
	}
}

func TestGemvMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, threads := range []int{1, 4} {
		a := randomNormal(17, 9, rng)
		x := make([]float64, 9)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		y := make([]float64, 17)
		GemvInto(y, a, x, threads)
		for i := 0; i < a.Rows; i++ {
			want := Dot(a.Row(i), x)
			if math.Abs(y[i]-want) > 1e-12 {
				t.Fatalf("threads=%d Gemv[%d] = %v, want %v", threads, i, y[i], want)
			}
		}
	}
}

func TestGemvTMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, threads := range []int{1, 4} {
		a := randomNormal(23, 7, rng)
		x := make([]float64, 23)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		y := make([]float64, 7)
		GemvTInto(y, a, x, threads)
		for j := 0; j < a.Cols; j++ {
			var want float64
			for i := 0; i < a.Rows; i++ {
				want += a.At(i, j) * x[i]
			}
			if math.Abs(y[j]-want) > 1e-12 {
				t.Fatalf("threads=%d GemvT[%d] = %v, want %v", threads, j, y[j], want)
			}
		}
	}
}

func naiveMatMul(a, b *Matrix) *Matrix {
	c := NewMatrix(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Cols; j++ {
			var s float64
			for k := 0; k < a.Cols; k++ {
				s += a.At(i, k) * b.At(k, j)
			}
			c.Set(i, j, s)
		}
	}
	return c
}

func TestMatMulVariants(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := randomNormal(8, 5, rng)
	b := randomNormal(5, 6, rng)
	for _, threads := range []int{1, 3} {
		if got, want := MatMul(a, b, threads), naiveMatMul(a, b); !got.Equal(want, 1e-12) {
			t.Fatalf("MatMul mismatch (threads=%d)", threads)
		}
		if got, want := MatMulTA(a, a, threads), naiveMatMul(a.T(), a); !got.Equal(want, 1e-12) {
			t.Fatalf("MatMulTA mismatch (threads=%d)", threads)
		}
	}
}

// Property: for random vectors, Dot is symmetric and linear.
func TestDotProperties(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(40)
		x := make([]float64, n)
		y := make([]float64, n)
		for i := range x {
			x[i], y[i] = rng.NormFloat64(), rng.NormFloat64()
		}
		if math.Abs(Dot(x, y)-Dot(y, x)) > 1e-12 {
			return false
		}
		x2 := make([]float64, n)
		copy(x2, x)
		Scal(2, x2)
		return math.Abs(Dot(x2, y)-2*Dot(x, y)) < 1e-10*(1+math.Abs(Dot(x, y)))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
