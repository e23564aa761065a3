package dist

import (
	"context"
	"sync"
	"testing"

	"hypertensor/internal/core"
	"hypertensor/internal/gen"
	"hypertensor/internal/tensor"
)

// The randomized solver's convergence decisions, and the Gram solver's
// branches (null directions, the orthogonality repair), all run on
// replicated small matrices after fixed rank-order reductions, so the
// fit trajectory must be bitwise identical between the simulated
// in-process world and a real TCP mesh — including a tensor with a mode
// smaller than the rank count, where some ranks own zero rows of that
// matricization and participate in the collectives with empty panels.
func TestRandomizedTransportBitwise(t *testing.T) {
	for _, svd := range []core.SVDMethod{core.SVDRandomized, core.SVDGram} {
		transportBitwise(t, svd)
	}
}

func transportBitwise(t *testing.T, svd core.SVDMethod) {
	for _, tc := range []struct {
		name  string
		x     *tensor.COO
		ranks []int
		p     int
	}{
		{"3mode", testTensor3(t), []int{4, 3, 3}, 4},
		{"4mode", testTensor4(t), []int{2, 2, 3, 2}, 2},
		// Mode 2 has 3 rows split across 4 ranks: at least one rank owns
		// zero rows of Y_(2) and must stay in lockstep through the
		// RowGram/MatTMat (randomized) and Gram (Gram) collectives.
		{"zero-row-rank", gen.Random(gen.Config{Dims: []int{25, 20, 3}, NNZ: 600, Skew: 0.4, Seed: 31}), []int{3, 3, 2}, 4},
	} {
		part, err := MakePartition(tc.x, tc.p, Coarse, MethodBlock, 11)
		if err != nil {
			t.Fatalf("%s svd=%v: %v", tc.name, svd, err)
		}
		cfg := Config{Ranks: tc.ranks, MaxIters: 3, Tol: -1, Seed: 17, SVD: svd}
		sim, err := Decompose(tc.x, part, cfg)
		if err != nil {
			t.Fatalf("%s simulated: %v", tc.name, err)
		}

		worlds := tcpWorlds(t, tc.p)
		results := make([]*Result, tc.p)
		errs := make([]error, tc.p)
		var wg sync.WaitGroup
		wg.Add(tc.p)
		for r := 0; r < tc.p; r++ {
			go func(r int) {
				defer wg.Done()
				results[r], errs[r] = DecomposeWorld(context.Background(), worlds[r], tc.x, part, cfg)
			}(r)
		}
		wg.Wait()
		for r := 0; r < tc.p; r++ {
			if errs[r] != nil {
				t.Fatalf("%s tcp rank %d: %v", tc.name, r, errs[r])
			}
		}
		for r, res := range results {
			if len(res.FitHistory) != len(sim.FitHistory) {
				t.Fatalf("%s rank %d: %d sweeps over TCP vs %d simulated",
					tc.name, r, len(res.FitHistory), len(sim.FitHistory))
			}
			for i := range sim.FitHistory {
				if res.FitHistory[i] != sim.FitHistory[i] { // bitwise, not approximate
					t.Fatalf("%s rank %d sweep %d: TCP fit %.17g != simulated %.17g",
						tc.name, r, i, res.FitHistory[i], sim.FitHistory[i])
				}
			}
			for n := range sim.Factors {
				for i := range sim.Factors[n].Data {
					if res.Factors[n].Data[i] != sim.Factors[n].Data[i] {
						t.Fatalf("%s rank %d: factor %d differs at %d", tc.name, r, n, i)
					}
				}
			}
		}
	}
}
