package trsvd

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"hypertensor/internal/dense"
)

func TestRandomizedMatchesDenseSVD(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	spec := make([]float64, 12)
	v := 64.0
	for i := range spec {
		spec[i] = v
		v /= 1.9 // geometric decay; flat spectra are the capped-sketch worst case
	}
	for _, tc := range []struct {
		m, n, k int
	}{
		{60, 12, 3},
		{200, 25, 5},
		{40, 40, 4},
		{50, 15, 5},
	} {
		a := matrixWithSpectrum(tc.m, tc.n, spec, rng)
		res, err := Randomized(&DenseOperator{A: a, Threads: 1}, tc.k, Options{Seed: 9})
		if err != nil {
			t.Fatal(err)
		}
		checkLeftVectors(t, a, res.U, res.Sigma, tc.k, 1e-6)
	}
}

func TestRandomizedWellSeparatedSpectrum(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	s := []float64{100, 50, 20, 5, 1, 0.1}
	a := matrixWithSpectrum(80, 20, s, rng)
	res, err := Randomized(&DenseOperator{A: a}, 4, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if math.Abs(res.Sigma[i]-s[i]) > 1e-6*s[0] {
			t.Fatalf("sigma[%d] = %v, want %v", i, res.Sigma[i], s[i])
		}
	}
	// checkLeftVectors bounds ||U^T U - I|| at 1e-8 via Matrix.Equal;
	// assert it explicitly here as the CGS2/CholeskyQR2 contract.
	g := dense.MatMulTA(res.U, res.U, 1)
	if !g.Equal(dense.Identity(4), 1e-8) {
		t.Fatalf("randomized basis not orthonormal to 1e-8: %v", g)
	}
}

func TestRandomizedRankDeficient(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	s := []float64{10, 3}
	a := matrixWithSpectrum(30, 8, s, rng)
	res, err := Randomized(&DenseOperator{A: a}, 4, Options{Seed: 2})
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

func TestRandomizedArgumentErrors(t *testing.T) {
	a := dense.NewMatrix(10, 5)
	if _, err := Randomized(&DenseOperator{A: a}, 0, Options{}); err == nil {
		t.Fatal("k = 0 accepted")
	}
	if _, err := Randomized(&DenseOperator{A: a}, 6, Options{}); err == nil {
		t.Fatal("k > cols accepted")
	}
}

// The sketch, every reduction, and every convergence decision are
// deterministic functions of replicated values, so the solve is bitwise
// identical across thread counts — the property the distributed fit
// trajectories ride on.
func TestRandomizedThreadCountBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(57))
	a := dense.RandomNormal(300, 40, rng)
	ref, err := Randomized(&DenseOperator{A: a, Threads: 1}, 8, Options{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	for _, threads := range []int{2, 4, 8} {
		res, err := Randomized(&DenseOperator{A: a, Threads: threads}, 8, Options{Seed: 11})
		if err != nil {
			t.Fatal(err)
		}
		if !matEqualBits(ref.U, res.U) {
			t.Fatalf("U differs bitwise at %d threads", threads)
		}
		for i := range ref.Sigma {
			if ref.Sigma[i] != res.Sigma[i] {
				t.Fatalf("sigma[%d] differs at %d threads", i, threads)
			}
		}
		if ref.MatVecs != res.MatVecs {
			t.Fatalf("iteration counts diverge across threads: %d vs %d", ref.MatVecs, res.MatVecs)
		}
	}
}

// A reused workspace must not change results: the workspace carries no
// state between solves, only scratch.
func TestRandomizedWorkspaceReuseBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	a := dense.RandomNormal(120, 30, rng)
	b := dense.RandomNormal(80, 22, rng)
	ws := NewWorkspace()
	for _, m := range []*dense.Matrix{a, b, a} { // alternate shapes
		fresh, err := Randomized(&DenseOperator{A: m, Threads: 1}, 5, Options{Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		warm, err := Randomized(&DenseOperator{A: m, Threads: 1}, 5, Options{Seed: 3, Work: ws})
		if err != nil {
			t.Fatal(err)
		}
		if !matEqualBits(fresh.U, warm.U) {
			t.Fatal("warm-workspace U differs from fresh")
		}
	}
}

// In steady state (warm workspace, one thread) only the returned
// Result allocates: U and Sigma live in the workspace.
func TestRandomizedSteadyStateAllocations(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	a := dense.RandomNormal(300, 40, rng)
	op := &DenseOperator{A: a, Threads: 1}
	ws := NewWorkspace()
	if _, err := Randomized(op, 8, Options{Seed: 1, Work: ws}); err != nil {
		t.Fatal(err) // warm the workspace
	}
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := Randomized(op, 8, Options{Seed: 1, Work: ws}); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 24 {
		t.Fatalf("warm Randomized performs %v allocations per call; want near-zero", allocs)
	}
}

// The sketch's CGS2 keeps the header of the rows above the one at hand
// in the workspace, as Lanczos keeps vbView: a call allocates nothing, at
// one thread or two, and its rows are the same bits either way.
func TestCGS2DoesNotAllocate(t *testing.T) {
	src := dense.RandomNormal(12, 40, rand.New(rand.NewSource(5)))
	ws := NewWorkspace()
	coeff := make([]float64, src.Rows)
	var first *dense.Matrix
	for _, threads := range []int{1, 2} {
		rows := src.Clone()
		orth := func() {
			copy(rows.Data, src.Data)
			orthRowsCGS2(rows, &ws.sketchView, coeff, &ws.scratch, threads)
		}
		orth() // grows the scratch
		if n := testing.AllocsPerRun(20, orth); n != 0 {
			t.Fatalf("threads=%d: CGS2 makes %v allocations per call, want 0", threads, n)
		}
		if first == nil {
			first = rows
		} else if !slices.Equal(rows.Data, first.Data) {
			t.Fatalf("threads=%d: CGS2 rows differ from one thread's", threads)
		}
	}
}

func TestEpsRankSelect(t *testing.T) {
	for _, tc := range []struct {
		name  string
		sigma []float64
		frob2 float64
		tau   float64
		rank  int
		grow  bool
	}{
		// 100+25+4+1 = 130 total mass, all of it sketched; tau compares
		// against sigma squared, so tau = 3 keeps sigma = 2 (energy 4).
		{"keeps values above tau", []float64{10, 5, 2, 1}, 130, 3, 3, false},
		{"keeps all when tau tiny", []float64{10, 5, 2, 1}, 130, 0.5, 4, false},
		{"clamps rank to one", []float64{10, 5, 2, 1}, 130, 1e6, 1, false},
		// All sketched values pass and the unseen tail (870) still
		// exceeds tau: the sketch cannot certify, ask for growth.
		{"grows on heavy tail", []float64{10, 5, 2, 1}, 1000, 0.9, 4, true},
		// Tail below tau: the sketch saw everything that matters.
		{"no growth on light tail", []float64{10, 5, 2, 1}, 130.5, 0.9, 4, false},
		{"empty sigma", nil, 100, 3, 1, false},
		// NaN sigma terminates the retained prefix without panicking.
		{"nan sigma stops scan", []float64{10, math.NaN(), 2}, 130, 3, 1, false},
		// NaN tail suppresses growth.
		{"nan frob suppresses growth", []float64{10, 5}, math.NaN(), 3, 2, false},
	} {
		rank, grow := EpsRankSelect(tc.sigma, tc.frob2, tc.tau)
		if rank != tc.rank || grow != tc.grow {
			t.Errorf("%s: EpsRankSelect = (%d, %v), want (%d, %v)", tc.name, rank, grow, tc.rank, tc.grow)
		}
	}
}

func FuzzEpsRankSelect(f *testing.F) {
	f.Add(10.0, 5.0, 2.0, 1.0, 130.0, 3.0)
	f.Add(0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
	f.Add(math.NaN(), 1.0, math.Inf(1), -1.0, math.NaN(), math.Inf(-1))
	f.Fuzz(func(t *testing.T, s0, s1, s2, s3, frob2, tau float64) {
		sigma := []float64{s0, s1, s2, s3}
		rank, grow := EpsRankSelect(sigma, frob2, tau)
		if rank < 1 || rank > len(sigma) {
			t.Fatalf("rank %d out of [1, %d]", rank, len(sigma))
		}
		// Tightening eps (raising tau) never increases the chosen rank.
		if math.IsInf(tau, 0) || math.IsNaN(tau) {
			return
		}
		var bigger float64
		if tau >= 0 {
			bigger = 2*tau + 1
		} else {
			bigger = tau / 2
		}
		rank2, _ := EpsRankSelect(sigma, frob2, bigger)
		if bigger >= tau && rank2 > rank {
			t.Fatalf("rank grew from %d to %d when tau rose %v -> %v", rank, rank2, tau, bigger)
		}
		_ = grow
	})
}

func TestGaussHashMomentsAndDeterminism(t *testing.T) {
	if GaussHash(1, 2, 3) != GaussHash(1, 2, 3) {
		t.Fatal("GaussHash not deterministic")
	}
	if GaussHash(1, 2, 3) == GaussHash(2, 2, 3) {
		t.Fatal("GaussHash ignores the seed")
	}
	var sum, sum2 float64
	const n = 20000
	for i := 0; i < n; i++ {
		v := GaussHash(5, int64(i), 0)
		sum += v
		sum2 += v * v
	}
	if mean := sum / n; math.Abs(mean) > 0.02 {
		t.Fatalf("GaussHash mean %v too far from 0", mean)
	}
	if varc := sum2 / n; math.Abs(varc-1) > 0.05 {
		t.Fatalf("GaussHash variance %v too far from 1", varc)
	}
}
