package trsvd

import (
	"math"
	"math/rand"
	"testing"

	"hypertensor/internal/dense"
)

// orthoDefect is ‖UᵀU − I‖_max.
func orthoDefect(u *dense.Matrix) float64 {
	g := dense.MatMulTA(u, u, 1)
	var worst float64
	for i := 0; i < g.Rows; i++ {
		for j := 0; j < g.Cols; j++ {
			want := 0.0
			if i == j {
				want = 1
			}
			if d := math.Abs(g.At(i, j) - want); !(d <= worst) {
				worst = d
			}
		}
	}
	return worst
}

// subspaceDefect is ‖PᵀP − I‖_max for P = UᵀV: zero when the two
// orthonormal bases span the same subspace.
func subspaceDefect(u, v *dense.Matrix) float64 {
	return orthoDefect(dense.MatMulTA(u, v, 1))
}

// The Gram solver against the three references it has: the dense Jacobi
// SVD of the matrix itself, the test-only GramSVD oracle (Jacobi on an
// unblocked Gram matrix), and the Lanczos solver.
func TestGramMatchesDenseSVDLanczosAndOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for _, tc := range []struct{ m, n, k int }{
		{60, 12, 3},
		{200, 25, 5},
		{40, 40, 4},
		{15, 50, 5}, // wide: the Gram matrix is rank-deficient
		{700, 100, 10},
	} {
		// A gapped spectrum keeps the k-dimensional subspace well defined.
		s := make([]float64, min(tc.m, tc.n))
		for i := range s {
			s[i] = 50 * math.Pow(0.7, float64(i))
		}
		a := matrixWithSpectrum(tc.m, tc.n, s, rng)
		op := &DenseOperator{A: a, Threads: 1}
		res, err := Gram(op, tc.k, Options{Seed: 9})
		if err != nil {
			t.Fatal(err)
		}
		if res.Passes != 2 || !res.Converged {
			t.Fatalf("%dx%d: Gram reports %d passes, converged %v", tc.m, tc.n, res.Passes, res.Converged)
		}
		checkLeftVectors(t, a, res.U, res.Sigma, tc.k, 1e-8)
		uRef, _ := dense.LeadingLeftSingularVectors(a, tc.k)
		if d := subspaceDefect(uRef, res.U); d > 1e-8 {
			t.Fatalf("%dx%d: subspace distance to the dense SVD %.3g", tc.m, tc.n, d)
		}
		lan, err := Lanczos(op, tc.k, Options{Seed: 9})
		if err != nil {
			t.Fatal(err)
		}
		if lan.Passes != lan.MatVecs {
			t.Fatalf("Lanczos reports %d passes for %d matvecs", lan.Passes, lan.MatVecs)
		}
		oracle, err := GramSVD(a, tc.k, 1, Options{Seed: 9})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < tc.k; i++ {
			if d := math.Abs(res.Sigma[i] - lan.Sigma[i]); d > 1e-8*s[0] {
				t.Fatalf("%dx%d: sigma[%d] Gram %v, Lanczos %v", tc.m, tc.n, i, res.Sigma[i], lan.Sigma[i])
			}
			if d := math.Abs(res.Sigma[i] - oracle.Sigma[i]); d > 1e-10*s[0] {
				t.Fatalf("%dx%d: sigma[%d] Gram %v, oracle %v", tc.m, tc.n, i, res.Sigma[i], oracle.Sigma[i])
			}
		}
		if d := subspaceDefect(oracle.U, res.U); d > 1e-8 {
			t.Fatalf("%dx%d: subspace distance to the oracle %.3g", tc.m, tc.n, d)
		}
	}
}

// Whatever the spectrum, the basis comes back orthonormal with exactly
// k columns, and the singular values it can resolve are right.
func TestGramHostileSpectra(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	steep := make([]float64, 8) // σ₁/σ₈ = 1e6: the orthogonality repair runs
	for i := range steep {
		steep[i] = 1e3 * math.Pow(10, -6*float64(i)/7)
	}
	dup := dense.RandomNormal(40, 9, rng)
	for i := 1; i < dup.Rows; i += 2 {
		copy(dup.Row(i), dup.Row(i-1)) // every row twice
	}
	for _, tc := range []struct {
		name     string
		a        *dense.Matrix
		k        int
		resolved int // leading singular values checked against the dense SVD
	}{
		{"sigma1/sigmaR = 1e6", matrixWithSpectrum(300, 30, steep, rng), 8, 8},
		{"rank 2, four wanted", matrixWithSpectrum(30, 8, []float64{10, 3}, rng), 4, 2},
		{"length-1 mode", dense.RandomNormal(1, 20, rng), 1, 1},
		{"more vectors than rows", dense.RandomNormal(2, 20, rng), 4, 2},
		{"R = I_n", dense.RandomNormal(5, 30, rng), 5, 5},
		{"duplicate rows", dup, 6, 6},
		{"zero matrix", dense.NewMatrix(10, 5), 2, 0},
		{"no rows", dense.NewMatrix(0, 5), 2, 0},
	} {
		res, err := Gram(&DenseOperator{A: tc.a, Threads: 1}, tc.k, Options{Seed: 5})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if res.U.Rows != tc.a.Rows || res.U.Cols != tc.k || len(res.Sigma) != tc.k {
			t.Fatalf("%s: U is %dx%d with %d sigmas, want %dx%d", tc.name, res.U.Rows, res.U.Cols, len(res.Sigma), tc.a.Rows, tc.k)
		}
		// A basis cannot have more orthonormal columns than rows.
		if tc.a.Rows >= tc.k {
			if d := orthoDefect(res.U); d > 1e-10 {
				t.Fatalf("%s: ‖UᵀU − I‖ = %.3g", tc.name, d)
			}
		}
		if tc.resolved == 0 {
			for _, s := range res.Sigma {
				if s != 0 {
					t.Fatalf("%s: sigma %v, want zeros", tc.name, res.Sigma)
				}
			}
			continue
		}
		_, sRef, _ := dense.SVD(tc.a)
		for i := 0; i < tc.resolved; i++ {
			// The Gram route resolves σ_i to about eps·σ₁²/σ_i.
			if d := math.Abs(res.Sigma[i] - sRef[i]); d > 1e-14*sRef[0]*sRef[0]/sRef[i]+1e-12*sRef[0] {
				t.Fatalf("%s: sigma[%d] = %v, want %v", tc.name, i, res.Sigma[i], sRef[i])
			}
		}
		for i := tc.resolved; i < tc.k; i++ {
			if res.Sigma[i] != 0 {
				t.Fatalf("%s: completed direction %d has sigma %v", tc.name, i, res.Sigma[i])
			}
		}
	}
}

// Both reductions run on fixed block grids and the eigensolver is
// serial: the same bits on every thread count, from a fresh or a kept
// workspace.
func TestGramBitwiseInvariantAcrossThreads(t *testing.T) {
	rng := rand.New(rand.NewSource(79))
	a := dense.RandomNormal(2051, 40, rng) // several reduce blocks, above the serial cutoff
	ref, err := Gram(&DenseOperator{A: a, Threads: 1}, 6, Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	ws := NewWorkspace()
	for _, threads := range []int{2, 4, 8, 1} {
		got, err := Gram(&DenseOperator{A: a, Threads: threads}, 6, Options{Seed: 3, Work: ws})
		if err != nil {
			t.Fatal(err)
		}
		if !matEqualBits(ref.U, got.U) {
			t.Fatalf("U differs at %d threads", threads)
		}
		for i := range ref.Sigma {
			if ref.Sigma[i] != got.Sigma[i] {
				t.Fatalf("sigma[%d] differs at %d threads", i, threads)
			}
		}
	}
}

// In steady state (warm workspace, one thread) only the returned
// Result allocates: U and Sigma live in the workspace.
func TestGramSteadyStateAllocations(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	a := dense.RandomNormal(300, 40, rng)
	op := &DenseOperator{A: a, Threads: 1}
	ws := NewWorkspace()
	if _, err := Gram(op, 8, Options{Seed: 1, Work: ws}); err != nil {
		t.Fatal(err) // warm the workspace
	}
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := Gram(op, 8, Options{Seed: 1, Work: ws}); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 6 {
		t.Fatalf("warm Gram performs %v allocations per call; want the result's only", allocs)
	}
}

func TestGramArgumentErrors(t *testing.T) {
	op := &DenseOperator{A: dense.NewMatrix(10, 5)}
	if _, err := Gram(op, 0, Options{}); err == nil {
		t.Fatal("k = 0 accepted")
	}
	if _, err := Gram(op, 6, Options{}); err == nil {
		t.Fatal("k > cols accepted")
	}
}
