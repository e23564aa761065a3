package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"hypertensor/internal/gen"
)

// The randomized solver must land on the same ALS fixed point as
// Lanczos: same fit to well under the benchmark noise floor on a preset
// tensor, and machine-precision fit on an exactly low-rank one.
func TestRandomizedFitMatchesLanczos(t *testing.T) {
	x, ranks := presetTensor(t, "netflix", 0.02)
	opts := Options{Ranks: ranks, MaxIters: 5, Tol: -1, Seed: 11}
	lan := opts
	lan.svd = SVDLanczos
	rnd := opts
	rnd.svd = SVDRandomized
	rl, err := Decompose(x, lan)
	if err != nil {
		t.Fatal(err)
	}
	rr, err := Decompose(x, rnd)
	if err != nil {
		t.Fatal(err)
	}
	if d := math.Abs(rl.Fit - rr.Fit); d > 1e-5 {
		t.Fatalf("randomized fit %v vs lanczos %v (|d|=%g)", rr.Fit, rl.Fit, d)
	}

	rng := rand.New(rand.NewSource(71))
	lr := lowRankTensor(rng, []int{20, 18, 16}, 3, 8)
	res, err := Decompose(lr, Options{Ranks: []int{3, 3, 3}, MaxIters: 30, Tol: 1e-12, Seed: 2, svd: SVDRandomized})
	if err != nil {
		t.Fatal(err)
	}
	if res.Fit < 1-1e-6 {
		t.Fatalf("randomized low-rank fit = %v, want ~1", res.Fit)
	}
}

// The randomized fit trajectory must be bitwise identical for every
// thread count: the sketch is counter-based, every panel reduction runs
// on a fixed block grid, and the solver's adaptive iteration counts are
// decided on replicated values.
func TestRandomizedFitBitwiseAcrossThreads(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	x := lowRankTensor(rng, []int{24, 18, 15, 9}, 2, 5)
	var ref *Result
	for _, threads := range []int{1, 2, 4, 8} {
		res, err := Decompose(x, Options{
			Ranks:    []int{2, 2, 2, 2},
			MaxIters: 4,
			Tol:      -1,
			Threads:  threads,
			svd:      SVDRandomized,
			Seed:     5,
		})
		if err != nil {
			t.Fatalf("threads=%d: %v", threads, err)
		}
		if ref == nil {
			ref = res
			continue
		}
		bitsEqual(t, fmt.Sprintf("threads=%d: fit history vs one thread", threads), res.FitHistory, ref.FitHistory)
	}
}

// On an exactly rank-(3,3,3) tensor the epsilon-truncation rule must
// find the true ranks: the tail energy beyond rank 3 is zero, so any
// eps keeps exactly the three genuine directions per mode.
func TestEpsRecoversExactRanks(t *testing.T) {
	rng := rand.New(rand.NewSource(75))
	x := lowRankTensor(rng, []int{20, 18, 16}, 3, 8)
	res, err := Decompose(x, Options{Eps: 0.05, MaxIters: 20, Tol: 1e-10, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.ChosenRanks) != 3 {
		t.Fatalf("ChosenRanks = %v, want 3 modes", res.ChosenRanks)
	}
	for n, r := range res.ChosenRanks {
		if r != 3 {
			t.Fatalf("mode %d chose rank %d on an exactly rank-3 tensor: %v", n, r, res.ChosenRanks)
		}
	}
	if res.Fit < 1-0.05 {
		t.Fatalf("eps = 0.05 run ended with fit %v", res.Fit)
	}
}

// Tightening eps never shrinks the chosen ranks, the ranks stay within
// the mode sizes (and any caps), and the residual respects the bound
// the truncation rule targets.
func TestEpsRankMonotoneInEps(t *testing.T) {
	x := gen.Random(gen.Config{Dims: []int{30, 25, 20}, NNZ: 1200, Skew: 0.5, Seed: 21})
	var prev []int
	for _, eps := range []float64{0.9, 0.7, 0.5} {
		res, err := Decompose(x, Options{Eps: eps, MaxIters: 5, Tol: -1, Seed: 13})
		if err != nil {
			t.Fatalf("eps=%v: %v", eps, err)
		}
		if len(res.ChosenRanks) != 3 {
			t.Fatalf("eps=%v: ChosenRanks = %v", eps, res.ChosenRanks)
		}
		for n, r := range res.ChosenRanks {
			if r < 1 || r > x.Dims[n] {
				t.Fatalf("eps=%v: mode-%d rank %d outside [1, %d]", eps, n, r, x.Dims[n])
			}
			if res.Factors[n].Cols != r {
				t.Fatalf("eps=%v: factor %d has %d columns, ChosenRanks says %d", eps, n, res.Factors[n].Cols, r)
			}
		}
		if prev != nil {
			for n := range prev {
				if res.ChosenRanks[n] < prev[n] {
					t.Fatalf("mode-%d rank shrank from %d to %d as eps tightened: %v -> %v",
						n, prev[n], res.ChosenRanks[n], prev, res.ChosenRanks)
				}
			}
		}
		prev = res.ChosenRanks
	}
}

// Rank caps bound the adaptive selection.
func TestEpsRespectsRankCaps(t *testing.T) {
	x := gen.Random(gen.Config{Dims: []int{30, 25, 20}, NNZ: 1200, Skew: 0.5, Seed: 21})
	caps := []int{4, 3, 5}
	res, err := Decompose(x, Options{Eps: 0.3, Ranks: caps, MaxIters: 4, Tol: -1, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	for n, r := range res.ChosenRanks {
		if r > caps[n] {
			t.Fatalf("mode-%d rank %d exceeds cap %d", n, r, caps[n])
		}
	}
}

func TestEpsValidation(t *testing.T) {
	x := gen.Random(gen.Config{Dims: []int{5, 5, 5}, NNZ: 20, Seed: 15})
	for _, eps := range []float64{-0.1, 1.5} {
		if _, err := Decompose(x, Options{Eps: eps}); err == nil {
			t.Errorf("Eps = %v accepted", eps)
		}
	}
	// Under Eps, Ranks is an optional cap: a nil Ranks must pass.
	if _, err := Decompose(x, Options{Eps: 0.5, MaxIters: 2, Tol: -1}); err != nil {
		t.Errorf("Eps run with nil Ranks rejected: %v", err)
	}
}

// The Update path under the randomized solver is held to the cold
// solve: from the previous factors it re-converges in a few sweeps and
// lands where a cold randomized solve of the merged tensor does.
func TestEngineUpdateRandomized(t *testing.T) {
	for _, name := range []string{"netflix", "nell"} {
		x, ranks := presetTensor(t, name, 0.2)
		delta := gen.Delta(x, 0.005, 0.005, 99)
		merged := x.Clone()
		if _, err := merged.Merge(delta); err != nil {
			t.Fatal(err)
		}
		opts := Options{Ranks: ranks, MaxIters: 40, Tol: 1e-7, Seed: 7, svd: SVDRandomized}
		e := NewEngine(mustPlan(t, x, opts))
		if _, err := e.Run(context.Background()); err != nil {
			t.Fatal(err)
		}
		ru, err := e.Update(delta)
		if err != nil {
			t.Fatal(err)
		}
		rc := mustRun(t, merged, opts)
		if d := math.Abs(ru.Fit - rc.Fit); !(d <= 1e-7) {
			t.Errorf("%s: updated fit %v vs cold randomized %v (|d|=%.3g)", name, ru.Fit, rc.Fit, d)
		}
		if ru.UpdateSweeps < 1 || ru.UpdateSweeps > 3 {
			t.Errorf("%s: the update took %d sweeps to re-converge, want 1 to 3", name, ru.UpdateSweeps)
		}
	}
}
