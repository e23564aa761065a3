package ttm_test

import (
	"math"
	"testing"

	"hypertensor/internal/core"
	"hypertensor/internal/gen"
	"hypertensor/internal/tensor"
	"hypertensor/internal/trsvd"
	"hypertensor/internal/ttm"
)

// TestChainHOOIMatchesCorePerSweep runs the paper's §V comparison HOOI,
// MET's chain of single-mode TTMs in place of the nonzero-based TTMc,
// on core's factors, solver state and seed schedule, and holds its fit
// to core.Decompose's at every sweep.
func TestChainHOOIMatchesCorePerSweep(t *testing.T) {
	x := gen.Random(gen.Config{Dims: []int{25, 20, 15}, NNZ: 600, Skew: 0.5, Seed: 7})
	ranks := []int{3, 4, 2}
	const sweeps, seed = 3, 11
	initial := core.InitialFactors(x.Dims, ranks, seed, 0)
	ref, err := core.Decompose(x, core.Options{Ranks: ranks, MaxIters: sweeps, Tol: -1, Seed: seed, Initial: initial})
	if err != nil {
		t.Fatal(err)
	}
	if len(ref.FitHistory) != sweeps {
		t.Fatalf("core ran %d sweeps, want %d", len(ref.FitHistory), sweeps)
	}

	state := core.NewSweepState(initial, seed)
	u := state.Factors
	normX := x.Norm(0)
	last := x.Order() - 1
	for sweep := 0; sweep < sweeps; sweep++ {
		var g *tensor.Dense
		for n := 0; n <= last; n++ {
			rows, y := ttm.ChainTTMc(x, n, u)
			sres, err := state.Solve(&trsvd.DenseOperator{A: y}, ranks[n], core.SVDAuto)
			if err != nil {
				t.Fatalf("sweep %d mode %d: %v", sweep+1, n, err)
			}
			u[n].Zero()
			for r, row := range rows {
				copy(u[n].Row(int(row)), sres.U.Row(r))
			}
			if n == last {
				g = ttm.CoreFromMatricized(ttm.CoreMatricized(y, rows, u[n], 0), ranks, n)
			}
		}
		fit := core.FitFromNorms(normX, g.Norm())
		if math.Abs(fit-ref.FitHistory[sweep]) > 1e-6 {
			t.Fatalf("sweep %d: chain HOOI fit %v, core fit %v", sweep+1, fit, ref.FitHistory[sweep])
		}
	}
}
