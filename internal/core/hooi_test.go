package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"hypertensor/internal/dense"
	"hypertensor/internal/gen"
	"hypertensor/internal/tensor"
)

// lowRankTensor builds a sparse tensor whose *dense equivalent* is
// exactly a rank-(r,..,r) Tucker model: the factors are supported on a
// small subset of `support` rows per mode, so the model is nonzero only
// on the support sub-cube and every nonzero is stored explicitly. HOOI
// with matching ranks can then fit it to machine precision.
func lowRankTensor(rng *rand.Rand, dims []int, r, support int) *tensor.COO {
	order := len(dims)
	ranks := make([]int, order)
	for i := range ranks {
		ranks[i] = r
	}
	g := tensor.NewDense(ranks)
	for i := range g.Data {
		g.Data[i] = rng.NormFloat64()
	}
	us := make([]*dense.Matrix, order)
	supports := make([][]int, order)
	for n := range us {
		us[n] = dense.NewMatrix(dims[n], r)
		perm := rng.Perm(dims[n])[:support]
		supports[n] = perm
		for _, i := range perm {
			for j := 0; j < r; j++ {
				us[n].Set(i, j, rng.NormFloat64())
			}
		}
	}
	res := &Result{Core: g, Factors: us}
	x := tensor.NewCOO(dims, 0)
	coord := make([]int, order)
	var rec func(n int)
	rec = func(n int) {
		if n == order {
			if v := res.ReconstructAt(coord); v != 0 {
				x.Append(coord, v)
			}
			return
		}
		for _, i := range supports[n] {
			coord[n] = i
			rec(n + 1)
		}
	}
	rec(0)
	return x.SortDedup()
}

func TestDecomposeFullRankIsExact(t *testing.T) {
	// With ranks equal to the dimensions the Tucker model can represent
	// any tensor exactly: fit must reach ~1.
	rng := rand.New(rand.NewSource(51))
	dims := []int{6, 5, 4}
	x := tensor.NewCOO(dims, 0)
	coord := make([]int, 3)
	for i := 0; i < 40; i++ {
		for m := range coord {
			coord[m] = rng.Intn(dims[m])
		}
		x.Append(coord, rng.NormFloat64())
	}
	x.SortDedup()
	res, err := Decompose(x, Options{Ranks: []int{6, 5, 4}, MaxIters: 8, Tol: -1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Fit < 1-1e-6 {
		t.Fatalf("full-rank fit = %v, want ~1", res.Fit)
	}
	if got := res.Residual(x); got > 1e-5 {
		t.Fatalf("full-rank residual = %v", got)
	}
}

func TestDecomposeRecoversLowRank(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	x := lowRankTensor(rng, []int{20, 18, 16}, 3, 8)
	res, err := Decompose(x, Options{Ranks: []int{3, 3, 3}, MaxIters: 30, Tol: 1e-12, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	// The dense equivalent is exactly rank (3,3,3), so the fit must be
	// essentially perfect.
	if res.Fit < 1-1e-6 {
		t.Fatalf("low-rank fit = %v, want ~1", res.Fit)
	}
}

func TestFitMonotoneNondecreasing(t *testing.T) {
	// ALS sweeps never decrease the fit (up to tiny numerical noise).
	x := gen.Random(gen.Config{Dims: []int{25, 20, 15}, NNZ: 800, Skew: 0.5, Seed: 3})
	res, err := Decompose(x, Options{Ranks: []int{4, 4, 4}, MaxIters: 12, Tol: -1, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(res.FitHistory); i++ {
		if res.FitHistory[i] < res.FitHistory[i-1]-1e-8 {
			t.Fatalf("fit decreased at sweep %d: %v -> %v", i, res.FitHistory[i-1], res.FitHistory[i])
		}
	}
}

func TestDecomposeDeterministicAcrossThreads(t *testing.T) {
	x := gen.Random(gen.Config{Dims: []int{30, 25, 20}, NNZ: 1000, Skew: 0.5, Seed: 4})
	opts := Options{Ranks: []int{3, 4, 2}, MaxIters: 4, Tol: -1, Seed: 5}
	o1 := opts
	o1.Threads = 1
	o4 := opts
	o4.Threads = 4
	r1, err := Decompose(x, o1)
	if err != nil {
		t.Fatal(err)
	}
	r4, err := Decompose(x, o4)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r1.Fit-r4.Fit) > 1e-12 {
		t.Fatalf("fit differs across threads: %v vs %v", r1.Fit, r4.Fit)
	}
	for n := range r1.Factors {
		if !r1.Factors[n].Equal(r4.Factors[n], 1e-10) {
			t.Fatalf("factor %d differs across thread counts", n)
		}
	}
}

// The HOOI fit trajectory must be bitwise identical for every thread
// count, on the flat kernel and on the tree. This is the determinism
// acceptance test of the parallel runtime: partitions move row ownership
// between workers but never an accumulation order, and every reduction
// runs on a block grid that depends only on the problem size.
func TestFitBitwiseInvariantAcrossThreads(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	x := lowRankTensor(rng, []int{24, 18, 15, 9}, 2, 5)
	for _, strategy := range []TTMcStrategy{TTMcFlat, TTMcDTree} {
		var ref *Result
		for _, threads := range []int{1, 2, 4, 8} {
			res, err := Decompose(x, Options{
				Ranks:    []int{2, 2, 2, 2},
				MaxIters: 4,
				Tol:      -1,
				Threads:  threads,
				TTMc:     strategy,
				Seed:     5,
			})
			if err != nil {
				t.Fatalf("strategy=%v threads=%d: %v", strategy, threads, err)
			}
			if ref == nil {
				ref = res
				continue
			}
			bitsEqual(t, fmt.Sprintf("strategy=%v threads=%d: fit history vs one thread", strategy, threads), res.FitHistory, ref.FitHistory)
		}
	}
}

func TestFactorsOrthonormal(t *testing.T) {
	x := gen.Random(gen.Config{Dims: []int{40, 30, 20, 10}, NNZ: 1500, Skew: 0.6, Seed: 6})
	res, err := Decompose(x, Options{Ranks: []int{3, 3, 3, 3}, MaxIters: 3, Tol: -1, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	for n, u := range res.Factors {
		g := dense.MatMulTA(u, u, 1)
		if !g.Equal(dense.Identity(u.Cols), 1e-8) {
			t.Fatalf("factor %d columns not orthonormal", n)
		}
	}
	if res.Core.Order() != 4 {
		t.Fatal("core order wrong")
	}
}

func TestCoreNormNeverExceedsTensorNorm(t *testing.T) {
	x := gen.Random(gen.Config{Dims: []int{15, 15, 15}, NNZ: 500, Skew: 0, Seed: 8})
	res, err := Decompose(x, Options{Ranks: []int{2, 2, 2}, MaxIters: 5, Tol: -1, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if res.Core.Norm() > x.Norm(1)+1e-9 {
		t.Fatalf("||G|| = %v exceeds ||X|| = %v", res.Core.Norm(), x.Norm(1))
	}
	if res.Fit < 0 || res.Fit > 1 {
		t.Fatalf("fit out of range: %v", res.Fit)
	}
}

func TestSVDMethodsAgreeOnFit(t *testing.T) {
	x := gen.Random(gen.Config{Dims: []int{25, 20, 15}, NNZ: 700, Skew: 0.4, Seed: 10})
	var fits []float64
	for _, m := range []SVDMethod{SVDLanczos, SVDRandomized} {
		res, err := Decompose(x, Options{Ranks: []int{3, 3, 3}, MaxIters: 10, Tol: -1, Seed: 11, SVD: m})
		if err != nil {
			t.Fatalf("method %d: %v", m, err)
		}
		fits = append(fits, res.Fit)
	}
	for i := 1; i < len(fits); i++ {
		if math.Abs(fits[i]-fits[0]) > 5e-3 {
			t.Fatalf("fits diverge across SVD methods: %v", fits)
		}
	}
}

func TestValidateErrors(t *testing.T) {
	x := gen.Random(gen.Config{Dims: []int{5, 5, 5}, NNZ: 20, Seed: 15})
	cases := []Options{
		{Ranks: []int{2, 2}},    // wrong rank count
		{Ranks: []int{0, 2, 2}}, // nonpositive rank
		{Ranks: []int{6, 2, 2}}, // rank exceeds dim
		{Ranks: []int{5, 1, 1}}, // rank exceeds product of others
	}
	for i, o := range cases {
		if _, err := Decompose(x, o); err == nil {
			t.Errorf("case %d accepted invalid options", i)
		}
	}
	empty := tensor.NewCOO([]int{5, 5}, 0)
	if _, err := Decompose(empty, Options{Ranks: []int{2, 2}}); err == nil {
		t.Error("empty tensor accepted")
	}
}

func TestTolStopsEarly(t *testing.T) {
	x := gen.Random(gen.Config{Dims: []int{20, 20, 20}, NNZ: 400, Skew: 0, Seed: 16})
	res, err := Decompose(x, Options{Ranks: []int{2, 2, 2}, MaxIters: 50, Tol: 1e-3, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	if res.Iters >= 50 {
		t.Fatalf("tolerance did not stop iteration: %d sweeps", res.Iters)
	}
	if res.Timings.TTMc <= 0 || res.Timings.TRSVD <= 0 {
		t.Fatal("phase timings not recorded")
	}
}
