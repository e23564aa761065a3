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
		a := randomNormal(shape[0], shape[1], rng)
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

// Property: QR of a random tall matrix reconstructs it and Q is
// orthonormal.
func TestQRProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := 2 + rng.Intn(20)
		n := 1 + rng.Intn(m)
		a := randomNormal(m, n, rng)
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
