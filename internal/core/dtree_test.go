package core

import (
	"math"
	"testing"

	"hypertensor/internal/gen"
)

// The dimension-tree strategy must reproduce the flat HOOI: identical
// sweep counts and per-sweep fits to well below the convergence
// tolerance, on 3- and 4-mode tensors.
func TestDecomposeDTreeMatchesFlat(t *testing.T) {
	for _, tc := range []struct {
		name  string
		dims  []int
		ranks []int
		nnz   int
	}{
		{"3mode", []int{50, 40, 30}, []int{4, 3, 3}, 1200},
		{"4mode", []int{20, 18, 16, 14}, []int{3, 2, 3, 2}, 800},
	} {
		x := gen.Random(gen.Config{Dims: tc.dims, NNZ: tc.nnz, Skew: 0.5, Seed: 71})
		flat, err := Decompose(x, Options{
			Ranks: tc.ranks, MaxIters: 4, Tol: -1, Seed: 5, ttmc: TTMcFlat,
		})
		if err != nil {
			t.Fatalf("%s flat: %v", tc.name, err)
		}
		tree, err := Decompose(x, Options{
			Ranks: tc.ranks, MaxIters: 4, Tol: -1, Seed: 5, ttmc: TTMcDTree,
		})
		if err != nil {
			t.Fatalf("%s dtree: %v", tc.name, err)
		}
		if tree.Iters != flat.Iters {
			t.Fatalf("%s: %d vs %d sweeps", tc.name, tree.Iters, flat.Iters)
		}
		for i := range flat.FitHistory {
			if d := math.Abs(tree.FitHistory[i] - flat.FitHistory[i]); d > 1e-8 {
				t.Fatalf("%s sweep %d: dtree fit %v vs flat %v (diff %v)",
					tc.name, i, tree.FitHistory[i], flat.FitHistory[i], d)
			}
		}
		if tree.TTMcFlops <= 0 || flat.TTMcFlops <= 0 {
			t.Fatalf("%s: flop counters not populated (%d, %d)", tc.name, tree.TTMcFlops, flat.TTMcFlops)
		}
		if tc.name == "4mode" && tree.TTMcFlops >= flat.TTMcFlops {
			t.Fatalf("%s: dtree flops %d not below flat %d", tc.name, tree.TTMcFlops, flat.TTMcFlops)
		}
	}
}

// The dtree path must be exactly reproducible for a fixed thread count
// and agree with itself across thread counts to well below the solver
// tolerance (the TTMc kernels are bitwise thread-deterministic — see
// the ttm package tests — while the threaded TRSVD reassociates sums,
// exactly as on the flat path).
func TestDecomposeDTreeReproducible(t *testing.T) {
	x := gen.Random(gen.Config{Dims: []int{30, 25, 20, 15}, NNZ: 600, Skew: 0.4, Seed: 72})
	run := func(threads int) *Result {
		res, err := Decompose(x, Options{
			Ranks: []int{2, 2, 2, 2}, MaxIters: 3, Tol: -1, Seed: 9, Threads: threads, ttmc: TTMcDTree,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(2), run(2)
	if a.Fit != b.Fit {
		t.Fatalf("fixed thread count not reproducible: %v vs %v", a.Fit, b.Fit)
	}
	for n := range a.Factors {
		for i := range a.Factors[n].Data {
			if a.Factors[n].Data[i] != b.Factors[n].Data[i] {
				t.Fatalf("factor %d differs at %d between identical runs", n, i)
			}
		}
	}
	c := run(4)
	if d := math.Abs(a.Fit - c.Fit); d > 1e-8 {
		t.Fatalf("fit drifts across thread counts: %v vs %v", a.Fit, c.Fit)
	}
}
