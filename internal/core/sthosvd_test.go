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

// One HOOI sweep from the random start (InitialFactors) is a randomized
// sequentially truncated HOSVD: mode n's product sketches X_(n) with the
// Kronecker product of the other modes' factors, Gaussian for the modes
// not yet solved and truncated for the ones that are. These tests hold
// that one sweep to what an ST-HOSVD must do.

func oneSweep(t *testing.T, x *tensor.COO, opts Options) *Result {
	t.Helper()
	opts.MaxIters, opts.Tol = 1, -1
	return mustRun(t, x, opts)
}

// An exactly rank-(3,3,3) tensor is captured by one sweep: a Gaussian
// Kronecker sketch of each X_(n) keeps its 3-dimensional column space.
func TestSTHOSVDExactLowRank(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	x := lowRankTensor(rng, []int{25, 20, 18}, 3, 8)
	res := oneSweep(t, x, Options{Ranks: []int{3, 3, 3}, Seed: 1})
	if res.Fit < 1-1e-6 {
		t.Fatalf("exact low-rank fit after one sweep = %v", res.Fit)
	}
	for n, u := range res.Factors {
		g := dense.MatMulTA(u, u, 1)
		if !g.Equal(dense.Identity(u.Cols), 1e-8) {
			t.Fatalf("factor %d not orthonormal", n)
		}
	}
}

func TestSTHOSVDFullRankIsExact(t *testing.T) {
	x := gen.Random(gen.Config{Dims: []int{6, 5, 4}, NNZ: 60, Skew: 0, Seed: 3})
	res := oneSweep(t, x, Options{Ranks: []int{6, 5, 4}, Seed: 2})
	if res.Fit < 1-1e-6 {
		t.Fatalf("full-rank fit after one sweep = %v", res.Fit)
	}
}

// On a generic tensor one sweep lands within a modest distance of the
// converged fit.
func TestSTHOSVDCloseToHOOI(t *testing.T) {
	x := gen.Random(gen.Config{Dims: []int{30, 25, 20}, NNZ: 1000, Skew: 0.5, Seed: 5})
	st := oneSweep(t, x, Options{Ranks: []int{4, 4, 4}, Seed: 7})
	hooi := mustRun(t, x, Options{Ranks: []int{4, 4, 4}, MaxIters: 15, Tol: -1, Seed: 8})
	if st.Fit < hooi.Fit-0.05 || st.Fit > hooi.Fit+0.01 {
		t.Fatalf("one-sweep fit %v is not near the converged HOOI fit %v", st.Fit, hooi.Fit)
	}
}

// Chaining: HOOI started from one sweep's factors continues that run
// exactly — its fits are the uninterrupted run's from sweep 2 on.
func TestSTHOSVDSeedsHOOI(t *testing.T) {
	x := gen.Random(gen.Config{Dims: []int{25, 25, 25}, NNZ: 900, Skew: 0.6, Seed: 9})
	opts := Options{Ranks: []int{3, 3, 3}, Seed: 11}
	st := oneSweep(t, x, opts)
	opts.MaxIters, opts.Tol = 4, -1
	full := mustRun(t, x, opts)
	opts.MaxIters, opts.Initial = 3, st.Factors
	warm := mustRun(t, x, opts)
	bitsEqual(t, "fits after a one-sweep start", warm.FitHistory, full.FitHistory[1:])
	if warm.Fit < st.Fit-1e-9 {
		t.Fatalf("HOOI sweeps reduced the one-sweep fit: %v -> %v", st.Fit, warm.Fit)
	}
}

// HOOI's core must be the tensor contracted with every final factor,
// G = X ×₁ U₁ᵀ … ×_N U_Nᵀ, entry by entry — after one sweep and after
// several: the fit reads only the core's norm, which a core with
// permuted axes keeps.
func TestSTHOSVDCoreIsTheContraction(t *testing.T) {
	for _, tc := range []struct {
		dims, ranks []int
		nnz         int
	}{
		{[]int{20, 15, 10}, []int{5, 3, 4}, 500},
		{[]int{9, 8, 7, 6}, []int{3, 2, 4, 2}, 400},
	} {
		x := gen.Random(gen.Config{Dims: tc.dims, NNZ: tc.nnz, Skew: 0.4, Seed: 13})
		for _, sweeps := range []int{1, 3} {
			res := mustRun(t, x, Options{Ranks: tc.ranks, MaxIters: sweeps, Tol: -1, Seed: 15})
			want, d := tensor.DenseFromCOO(x).Data, append([]int(nil), tc.dims...)
			for n, u := range res.Factors {
				want, d[n] = modeProduct(want, d, n, u), u.Cols
			}
			if fmt.Sprint(res.Core.Dims) != fmt.Sprint(tc.ranks) || len(res.Core.Data) != len(want) {
				t.Fatalf("dims %v: core of shape %v, want %v", tc.dims, res.Core.Dims, tc.ranks)
			}
			for i, g := range res.Core.Data {
				if d := math.Abs(g - want[i]); !(d <= 1e-10) {
					t.Fatalf("dims %v, %d sweeps: core entry %d is %v, X ×ₙ Uₙᵀ gives %v (off by %.3g)", tc.dims, sweeps, i, g, want[i], d)
				}
			}
		}
	}
}

func TestSTHOSVDDeterministic(t *testing.T) {
	x := gen.Random(gen.Config{Dims: []int{15, 15, 15}, NNZ: 400, Skew: 0.5, Seed: 19})
	ref := oneSweep(t, x, Options{Ranks: []int{3, 3, 3}, Seed: 21, Threads: 1})
	for _, threads := range []int{1, 2, 4} {
		got := oneSweep(t, x, Options{Ranks: []int{3, 3, 3}, Seed: 21, Threads: threads})
		resultsBitwiseEqual(t, fmt.Sprintf("one sweep at %d threads", threads), ref, got)
	}
}

// At order 4 the one sweep runs on the dimension tree by default; the
// flat kernel gives the same fit.
func TestSTHOSVD4Mode(t *testing.T) {
	x := gen.Random(gen.Config{Dims: []int{12, 10, 8, 6}, NNZ: 500, Skew: 0.4, Seed: 23})
	tree := oneSweep(t, x, Options{Ranks: []int{2, 2, 2, 2}, Seed: 25})
	flat := oneSweep(t, x, Options{Ranks: []int{2, 2, 2, 2}, Seed: 25, ttmc: TTMcFlat})
	if tree.TTMc != TTMcDTree || tree.Core.Order() != 4 || !(tree.Fit > 0) {
		t.Fatalf("4-mode one sweep: strategy %v, core order %d, fit %v", tree.TTMc, tree.Core.Order(), tree.Fit)
	}
	if d := math.Abs(tree.Fit - flat.Fit); !(d <= 1e-10) {
		t.Fatalf("4-mode one sweep: tree fit %v, flat %v", tree.Fit, flat.Fit)
	}
}
