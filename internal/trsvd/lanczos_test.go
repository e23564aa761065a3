package trsvd

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"hypertensor/internal/dense"
)

// randomNormal fills a new r x c matrix with N(0,1) samples drawn from
// rng: the tests' operands.
func randomNormal(r, c int, rng *rand.Rand) *dense.Matrix {
	m := dense.NewMatrix(r, c)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

// matrixWithSpectrum builds an m x n matrix with prescribed singular
// values via A = U diag(s) V^T with random orthonormal U, V.
func matrixWithSpectrum(m, n int, s []float64, rng *rand.Rand) *dense.Matrix {
	k := len(s)
	u, _ := dense.QR(randomNormal(m, k, rng))
	v, _ := dense.QR(randomNormal(n, k, rng))
	us := u.Clone()
	for i := 0; i < m; i++ {
		row := us.Row(i)
		for j := 0; j < k; j++ {
			row[j] *= s[j]
		}
	}
	return dense.MatMul(us, v.T(), 1)
}

func checkLeftVectors(t *testing.T, a *dense.Matrix, u *dense.Matrix, sigma []float64, k int, tol float64) {
	t.Helper()
	// Reference via dense Jacobi SVD.
	_, sRef, _ := dense.SVD(a)
	for i := 0; i < k; i++ {
		if math.Abs(sigma[i]-sRef[i]) > tol*(1+sRef[0]) {
			t.Fatalf("sigma[%d] = %v, want %v", i, sigma[i], sRef[i])
		}
	}
	// Orthonormal columns.
	g := dense.MatMulTA(u, u, 1)
	if !g.Equal(dense.Identity(k), 1e-8) {
		t.Fatalf("left vectors not orthonormal: %v", g)
	}
	// Residual check: ||A^T u_i|| = sigma_i for true singular vectors.
	for i := 0; i < k; i++ {
		ui := make([]float64, a.Rows)
		for r := 0; r < a.Rows; r++ {
			ui[r] = u.At(r, i)
		}
		atu := make([]float64, a.Cols)
		dense.GemvTInto(atu, a, ui, 1)
		if math.Abs(dense.Nrm2(atu)-sigma[i]) > tol*(1+sRef[0]) {
			t.Fatalf("||A^T u_%d|| = %v, want %v", i, dense.Nrm2(atu), sigma[i])
		}
	}
}

func TestLanczosMatchesDenseSVD(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, tc := range []struct {
		m, n, k int
	}{
		{60, 12, 3},
		{200, 25, 5},
		{40, 40, 4},
		{15, 50, 5}, // wide
	} {
		a := randomNormal(tc.m, tc.n, rng)
		res, err := Lanczos(&DenseOperator{A: a, Threads: 1}, tc.k, Options{Seed: 9})
		if err != nil {
			t.Fatal(err)
		}
		checkLeftVectors(t, a, res.U, res.Sigma, tc.k, 1e-6)
	}
}

func TestLanczosWellSeparatedSpectrum(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	s := []float64{100, 50, 20, 5, 1, 0.1}
	a := matrixWithSpectrum(80, 20, s, rng)
	res, err := Lanczos(&DenseOperator{A: a}, 4, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if math.Abs(res.Sigma[i]-s[i]) > 1e-6*s[0] {
			t.Fatalf("sigma[%d] = %v, want %v", i, res.Sigma[i], s[i])
		}
	}
	if !res.Converged {
		t.Fatal("well-separated spectrum should converge")
	}
}

func TestLanczosRankDeficient(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	// Rank-2 matrix, ask for 4 vectors: must still return an orthonormal
	// basis with sigma[2:] == 0.
	s := []float64{10, 3}
	a := matrixWithSpectrum(30, 8, s, rng)
	res, err := Lanczos(&DenseOperator{A: a}, 4, Options{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Sigma[0]-10) > 1e-6 || math.Abs(res.Sigma[1]-3) > 1e-6 {
		t.Fatalf("leading sigmas wrong: %v", res.Sigma)
	}
	if res.Sigma[2] > 1e-6 || res.Sigma[3] > 1e-6 {
		t.Fatalf("trailing sigmas should vanish: %v", res.Sigma)
	}
	g := dense.MatMulTA(res.U, res.U, 1)
	if !g.Equal(dense.Identity(4), 1e-8) {
		t.Fatal("completed basis not orthonormal")
	}
}

func TestLanczosZeroMatrix(t *testing.T) {
	a := dense.NewMatrix(10, 5)
	res, err := Lanczos(&DenseOperator{A: a}, 2, Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Sigma[0] != 0 || res.Sigma[1] != 0 {
		t.Fatalf("zero matrix sigmas: %v", res.Sigma)
	}
	g := dense.MatMulTA(res.U, res.U, 1)
	if !g.Equal(dense.Identity(2), 1e-8) {
		t.Fatal("zero-matrix basis not orthonormal")
	}
}

func TestLanczosArgumentErrors(t *testing.T) {
	a := dense.NewMatrix(10, 5)
	if _, err := Lanczos(&DenseOperator{A: a}, 0, Options{}); err == nil {
		t.Fatal("k = 0 accepted")
	}
	if _, err := Lanczos(&DenseOperator{A: a}, 6, Options{}); err == nil {
		t.Fatal("k > cols accepted")
	}
}

func TestLanczosDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	a := randomNormal(50, 10, rng)
	r1, _ := Lanczos(&DenseOperator{A: a}, 3, Options{Seed: 5})
	r2, _ := Lanczos(&DenseOperator{A: a}, 3, Options{Seed: 5})
	if !r1.U.Equal(r2.U, 0) {
		t.Fatal("Lanczos not deterministic for fixed seed")
	}
}

func TestGramSVDMatchesDenseSVD(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	a := randomNormal(120, 12, rng)
	res, err := GramSVD(a, 4, 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	checkLeftVectors(t, a, res.U, res.Sigma, 4, 1e-6)
	if _, err := GramSVD(a, 0, 1, Options{}); err == nil {
		t.Fatal("k = 0 accepted")
	}
}

// Property: both solvers agree with the Gram oracle on the leading
// singular values of random matrices with decent spectral gaps.
func TestSolversAgreeProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := 20 + rng.Intn(40)
		n := 5 + rng.Intn(10)
		// Gapped spectrum avoids ill-conditioned subspace comparisons.
		s := make([]float64, 4)
		v := 100.0
		for i := range s {
			s[i] = v
			v /= 2 + rng.Float64()*3
		}
		a := matrixWithSpectrum(m, n, s, rng)
		k := 2
		lan, err1 := Lanczos(&DenseOperator{A: a}, k, Options{Seed: seed})
		rnd, err2 := Randomized(&DenseOperator{A: a}, k, Options{Seed: seed})
		gram, err3 := GramSVD(a, k, 1, Options{Seed: seed})
		if err1 != nil || err2 != nil || err3 != nil {
			return false
		}
		for i := 0; i < k; i++ {
			if math.Abs(lan.Sigma[i]-gram.Sigma[i]) > 1e-5*s[0] {
				return false
			}
			if math.Abs(rnd.Sigma[i]-gram.Sigma[i]) > 1e-4*s[0] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestHashUnitDeterministicAndBounded(t *testing.T) {
	a := make([]float64, 100)
	b := make([]float64, 100)
	id := func(i int) int64 { return int64(i) }
	hashUnit(a, 42, id)
	hashUnit(b, 42, id)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("hashUnit not deterministic")
		}
		if a[i] <= -1 || a[i] >= 1 {
			t.Fatalf("hashUnit out of range: %v", a[i])
		}
	}
	hashUnit(b, 43, id)
	same := true
	for i := range a {
		if a[i] != b[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds give identical vectors")
	}
}

func BenchmarkLanczos1000x100k10(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	a := randomNormal(1000, 100, rng)
	op := &DenseOperator{A: a, Threads: 0}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Lanczos(op, 10, Options{Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}
