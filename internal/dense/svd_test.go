package dense

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func reconstructSVD(u *Matrix, s []float64, v *Matrix) *Matrix {
	us := u.Clone()
	for i := 0; i < us.Rows; i++ {
		row := us.Row(i)
		for j := range row {
			row[j] *= s[j]
		}
	}
	return MatMul(us, v.T(), 1)
}

func TestSVDReconstructs(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, shape := range [][2]int{{1, 1}, {4, 4}, {12, 5}, {5, 12}, {30, 3}} {
		a := RandomNormal(shape[0], shape[1], rng)
		u, s, v := SVD(a)
		if got := reconstructSVD(u, s, v); !got.Equal(a, 1e-9) {
			t.Fatalf("SVD does not reconstruct for shape %v", shape)
		}
		for i := 1; i < len(s); i++ {
			if s[i] > s[i-1]+1e-12 {
				t.Fatalf("singular values not sorted: %v", s)
			}
		}
		for _, sv := range s {
			if sv < 0 {
				t.Fatalf("negative singular value %v", sv)
			}
		}
		checkOrthonormalColumns(t, u, 1e-9)
		checkOrthonormalColumns(t, v, 1e-9)
	}
}

func TestSVDKnownValues(t *testing.T) {
	// diag(3, 2, 1) has exactly those singular values.
	a := FromRows([][]float64{{3, 0, 0}, {0, 1, 0}, {0, 0, 2}})
	_, s, _ := SVD(a)
	want := []float64{3, 2, 1}
	for i := range want {
		if math.Abs(s[i]-want[i]) > 1e-12 {
			t.Fatalf("s = %v, want %v", s, want)
		}
	}
}

func TestSVDRankDeficient(t *testing.T) {
	// Rank-1 matrix: second singular value must be ~0.
	a := FromRows([][]float64{{1, 2}, {2, 4}, {3, 6}})
	u, s, v := SVD(a)
	if s[1] > 1e-10 {
		t.Fatalf("rank-1 matrix has s[1] = %v", s[1])
	}
	if got := reconstructSVD(u, s, v); !got.Equal(a, 1e-9) {
		t.Fatal("rank-deficient SVD does not reconstruct")
	}
}

func TestSVDSingularValuesMatchGram(t *testing.T) {
	// Singular values squared are the eigenvalues of A^T A; verify the
	// trace identity sum(s^2) = ||A||_F^2.
	rng := rand.New(rand.NewSource(13))
	a := RandomNormal(9, 6, rng)
	_, s, _ := SVD(a)
	var sum float64
	for _, sv := range s {
		sum += sv * sv
	}
	fro := a.FrobeniusNorm()
	if math.Abs(sum-fro*fro) > 1e-9*fro*fro {
		t.Fatalf("sum s^2 = %v, ||A||_F^2 = %v", sum, fro*fro)
	}
}

func TestLeadingLeftSingularVectors(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	a := RandomNormal(20, 6, rng)
	u, s := LeadingLeftSingularVectors(a, 3)
	if u.Rows != 20 || u.Cols != 3 || len(s) != 3 {
		t.Fatalf("unexpected shapes: %dx%d, %d values", u.Rows, u.Cols, len(s))
	}
	checkOrthonormalColumns(t, u, 1e-9)
	// Requesting more than min(m,n) truncates.
	u2, s2 := LeadingLeftSingularVectors(a, 100)
	if u2.Cols != 6 || len(s2) != 6 {
		t.Fatalf("over-request not truncated: %d cols", u2.Cols)
	}
}

// Property: SVD reconstructs random matrices of random shapes.
func TestSVDProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := 1 + rng.Intn(15)
		n := 1 + rng.Intn(15)
		a := RandomNormal(m, n, rng)
		u, s, v := SVD(a)
		return reconstructSVD(u, s, v).Equal(a, 1e-8)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkSVD32x16(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	a := RandomNormal(32, 16, rng)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		SVD(a)
	}
}

func BenchmarkQR256x16(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	a := RandomNormal(256, 16, rng)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		QR(a)
	}
}
