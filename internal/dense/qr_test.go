package dense

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// checkOrthonormalColumns verifies Q^T Q = I within tol.
func checkOrthonormalColumns(t *testing.T, q *Matrix, tol float64) {
	t.Helper()
	g := MatMulTA(q, q, 1)
	for i := 0; i < g.Rows; i++ {
		for j := 0; j < g.Cols; j++ {
			want := 0.0
			if i == j {
				want = 1
			}
			if math.Abs(g.At(i, j)-want) > tol {
				t.Fatalf("Q^T Q (%d,%d) = %v, want %v", i, j, g.At(i, j), want)
			}
		}
	}
}

func TestQRReconstructs(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, shape := range [][2]int{{1, 1}, {3, 3}, {10, 4}, {50, 8}, {7, 7}} {
		a := RandomNormal(shape[0], shape[1], rng)
		q, r := QR(a)
		checkOrthonormalColumns(t, q, 1e-10)
		if got := MatMul(q, r, 1); !got.Equal(a, 1e-10) {
			t.Fatalf("QR does not reconstruct for shape %v", shape)
		}
		// R upper triangular.
		for i := 0; i < r.Rows; i++ {
			for j := 0; j < i; j++ {
				if math.Abs(r.At(i, j)) > 1e-12 {
					t.Fatalf("R(%d,%d) = %v, not upper triangular", i, j, r.At(i, j))
				}
			}
		}
	}
}

func TestQRWideMatrixPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for wide matrix")
		}
	}()
	QR(NewMatrix(2, 5))
}

func TestOrthonormalizeRankDeficient(t *testing.T) {
	// Two identical columns: Orthonormalize must still return 2
	// orthonormal columns.
	a := FromRows([][]float64{{1, 1}, {2, 2}, {3, 3}, {0, 0}})
	q := Orthonormalize(a, 1)
	checkOrthonormalColumns(t, q, 1e-10)
}

func TestOrthonormalizeZeroMatrix(t *testing.T) {
	q := Orthonormalize(NewMatrix(5, 3), 1)
	checkOrthonormalColumns(t, q, 1e-10)
}

// Property: QR of a random tall matrix reconstructs it and Q is
// orthonormal.
func TestQRProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := 2 + rng.Intn(20)
		n := 1 + rng.Intn(m)
		a := RandomNormal(m, n, rng)
		q, r := QR(a)
		if !MatMul(q, r, 1).Equal(a, 1e-9) {
			return false
		}
		g := MatMulTA(q, q, 1)
		return g.Equal(Identity(n), 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// The row-major in-place Householder must reproduce the Q of the
// column-copying QR — same reflectors, same signs — to rounding: the
// initial factors, and every committed fit that starts from them, hang
// on it.
func TestOrthonormalizeMatchesQR(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, shape := range [][2]int{{1, 1}, {3, 3}, {5, 5}, {6, 5}, {40, 1}, {301, 10}, {20000, 10}} {
		a := RandomNormal(shape[0], shape[1], rng)
		want, _ := QR(a)
		got := Orthonormalize(a.Clone(), 2)
		if d := maxAbsDiff(got.Data, want.Data); !(d <= 1e-12) {
			t.Fatalf("%v: Orthonormalize is %.3g off QR's Q", shape, d)
		}
		checkOrthonormalColumns(t, got, 1e-12)
	}
}

// Every sum over rows runs on a grid fixed by the row count, so the
// thread count must not move a bit.
func TestOrthonormalizeThreadInvariant(t *testing.T) {
	for _, shape := range [][2]int{{7, 7}, {500, 6}, {70001, 9}} {
		a := RandomNormal(shape[0], shape[1], rand.New(rand.NewSource(11)))
		want := Orthonormalize(a.Clone(), 1)
		for _, threads := range []int{2, 3, 8} {
			if got := Orthonormalize(a.Clone(), threads); !got.Equal(want, 0) {
				t.Fatalf("%v: threads=%d differs from threads=1", shape, threads)
			}
		}
	}
}

// bitsDigest is an FNV-1a hash of the matrix's float64 bit patterns.
func bitsDigest(m *Matrix) uint64 {
	h := uint64(14695981039346656037)
	for _, v := range m.Data {
		b := math.Float64bits(v)
		for k := 0; k < 64; k += 8 {
			h = (h ^ (b >> k & 0xff)) * 1099511628211
		}
	}
	return h
}

// The init QR's exact bits, recorded before its block partials were
// given cache lines of their own: where a partial sits must not change
// what is added to it, or in what order, on any thread count.
func TestOrthonormalizeDigests(t *testing.T) {
	for _, tc := range []struct {
		rows, cols int
		want       uint64
	}{
		{70001, 5, 0xbe8e8ddecb41f2aa},
		{70001, 10, 0x2f4c9bab18b9},
	} {
		a := RandomNormal(tc.rows, tc.cols, rand.New(rand.NewSource(1)))
		for _, threads := range []int{1, 2, 3, 8} {
			if got := bitsDigest(Orthonormalize(a.Clone(), threads)); got != tc.want {
				t.Fatalf("%dx%d threads=%d: digest %#x, recorded %#x", tc.rows, tc.cols, threads, got, tc.want)
			}
		}
	}
}

// Degenerate inputs still give exactly Cols orthonormal columns.
func TestOrthonormalizeDegenerate(t *testing.T) {
	dup := RandomNormal(50000, 4, rand.New(rand.NewSource(5)))
	for i := 0; i < dup.Rows; i++ {
		dup.Set(i, 2, dup.At(i, 0))
	}
	square := FromRows([][]float64{{2, 2, 0}, {0, 0, 0}, {1, 1, 0}})
	for name, a := range map[string]*Matrix{
		"zero":      NewMatrix(40000, 3),
		"duplicate": dup,
		"square":    square,
	} {
		q := Orthonormalize(a, 2)
		if q != a {
			t.Fatalf("%s: not in place", name)
		}
		checkOrthonormalColumns(t, q, 1e-10)
	}
	// The safety net itself: a column without length is replaced by a
	// direction orthogonal to the rest.
	q := FromRows([][]float64{{1, 0}, {0, 0}, {0, 0}})
	reseedColumn(q, 1)
	checkOrthonormalColumns(t, q, 1e-12)
}
