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

func TestSTHOSVDExactLowRank(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	x := lowRankTensor(rng, []int{25, 20, 18}, 3, 8)
	res, err := STHOSVD(x, STHOSVDOptions{Ranks: []int{3, 3, 3}, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// An exactly rank-(3,3,3) tensor is captured by one ST-HOSVD pass
	// (the randomized range finder recovers the exact 3-dimensional row
	// spaces).
	if res.Fit < 1-1e-6 {
		t.Fatalf("exact low-rank fit = %v", res.Fit)
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
	res, err := STHOSVD(x, STHOSVDOptions{Ranks: []int{6, 5, 4}, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Fit < 1-1e-6 {
		t.Fatalf("full-rank ST-HOSVD fit = %v", res.Fit)
	}
}

func TestSTHOSVDCloseToHOOI(t *testing.T) {
	// On a generic tensor one ST-HOSVD pass should land within a modest
	// distance of the converged HOOI fit (it is the standard HOOI
	// initializer).
	x := gen.Random(gen.Config{Dims: []int{30, 25, 20}, NNZ: 1000, Skew: 0.5, Seed: 5})
	st, err := STHOSVD(x, STHOSVDOptions{Ranks: []int{4, 4, 4}, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	hooi, err := Decompose(x, Options{Ranks: []int{4, 4, 4}, MaxIters: 15, Tol: -1, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if st.Fit > hooi.Fit+1e-9 {
		// HOOI is a local ascent from its own init; ST-HOSVD should not
		// beat a converged run by much, but allow it to win slightly.
		if st.Fit > hooi.Fit+0.05 {
			t.Fatalf("ST-HOSVD fit %v implausibly above converged HOOI %v", st.Fit, hooi.Fit)
		}
	}
	if st.Fit < 0.5*hooi.Fit {
		t.Fatalf("ST-HOSVD fit %v far below HOOI %v", st.Fit, hooi.Fit)
	}
}

func TestSTHOSVDSeedsHOOI(t *testing.T) {
	// Chaining: HOOI warm-started from ST-HOSVD factors must reach at
	// least the fit it would from a random start, in fewer sweeps.
	x := gen.Random(gen.Config{Dims: []int{25, 25, 25}, NNZ: 900, Skew: 0.6, Seed: 9})
	ranks := []int{3, 3, 3}
	st, err := STHOSVD(x, STHOSVDOptions{Ranks: ranks, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	warm, err := Decompose(x, Options{Ranks: ranks, MaxIters: 3, Tol: -1, Seed: 11, Initial: st.Factors})
	if err != nil {
		t.Fatal(err)
	}
	if warm.Fit < st.Fit-1e-9 {
		t.Fatalf("HOOI sweeps reduced the ST-HOSVD fit: %v -> %v", st.Fit, warm.Fit)
	}
}

// ST-HOSVD's core must be the tensor contracted with every factor,
// G = X ×₁ U₁ᵀ … ×_N U_Nᵀ, entry by entry: the fit reads only the
// core's norm, which a core with permuted axes keeps.
func TestSTHOSVDCoreIsTheContraction(t *testing.T) {
	for _, tc := range []struct {
		dims, ranks []int
		nnz         int
	}{
		{[]int{20, 15, 10}, []int{5, 3, 4}, 500},
		{[]int{9, 8, 7, 6}, []int{3, 2, 4, 2}, 400},
	} {
		x := gen.Random(gen.Config{Dims: tc.dims, NNZ: tc.nnz, Skew: 0.4, Seed: 13})
		res, err := STHOSVD(x, STHOSVDOptions{Ranks: tc.ranks, Seed: 15})
		if err != nil {
			t.Fatal(err)
		}
		want, d := tensor.DenseFromCOO(x).Data, append([]int(nil), tc.dims...)
		for n, u := range res.Factors {
			want, d[n] = modeProduct(want, d, n, u), u.Cols
		}
		if fmt.Sprint(res.Core.Dims) != fmt.Sprint(tc.ranks) || len(res.Core.Data) != len(want) {
			t.Fatalf("dims %v: core of shape %v, want %v", tc.dims, res.Core.Dims, tc.ranks)
		}
		for i, g := range res.Core.Data {
			if d := math.Abs(g - want[i]); !(d <= 1e-10) {
				t.Fatalf("dims %v: core entry %d is %v, X ×ₙ Uₙᵀ gives %v (off by %.3g)", tc.dims, i, g, want[i], d)
			}
		}
	}
}

func TestSTHOSVDValidation(t *testing.T) {
	x := gen.Random(gen.Config{Dims: []int{5, 5, 5}, NNZ: 30, Seed: 17})
	if _, err := STHOSVD(x, STHOSVDOptions{Ranks: []int{2, 2}}); err == nil {
		t.Fatal("wrong rank count accepted")
	}
	if _, err := STHOSVD(x, STHOSVDOptions{Ranks: []int{9, 2, 2}}); err == nil {
		t.Fatal("oversized rank accepted")
	}
}

func TestSTHOSVDDeterministic(t *testing.T) {
	x := gen.Random(gen.Config{Dims: []int{15, 15, 15}, NNZ: 400, Skew: 0.5, Seed: 19})
	a, _ := STHOSVD(x, STHOSVDOptions{Ranks: []int{3, 3, 3}, Seed: 21})
	b, _ := STHOSVD(x, STHOSVDOptions{Ranks: []int{3, 3, 3}, Seed: 21})
	if a.Fit != b.Fit {
		t.Fatal("ST-HOSVD not deterministic")
	}
	for n := range a.Factors {
		if !a.Factors[n].Equal(b.Factors[n], 0) {
			t.Fatal("factors not deterministic")
		}
	}
}

func TestSTHOSVD4Mode(t *testing.T) {
	x := gen.Random(gen.Config{Dims: []int{12, 10, 8, 6}, NNZ: 500, Skew: 0.4, Seed: 23})
	res, err := STHOSVD(x, STHOSVDOptions{Ranks: []int{2, 2, 2, 2}, Seed: 25})
	if err != nil {
		t.Fatal(err)
	}
	if res.Core.Order() != 4 || res.Fit <= 0 {
		t.Fatalf("4-mode ST-HOSVD failed: fit %v", res.Fit)
	}
}
