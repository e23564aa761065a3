package dist

import (
	"math"
	"testing"

	"hypertensor/internal/core"
	"hypertensor/internal/gen"
	"hypertensor/internal/tensor"
)

func testTensor3(t *testing.T) *tensor.COO {
	t.Helper()
	return gen.Random(gen.Config{Dims: []int{40, 30, 20}, NNZ: 900, Skew: 0.5, Seed: 9})
}

func testTensor4(t *testing.T) *tensor.COO {
	t.Helper()
	return gen.Random(gen.Config{Dims: []int{15, 12, 18, 10}, NNZ: 500, Skew: 0.4, Seed: 10})
}

// presetTensor builds a dataset preset at the given scale with the
// paper's ranks, each capped at its mode's size.
func presetTensor(t *testing.T, name string, scale float64) (*tensor.COO, []int) {
	t.Helper()
	cfg, err := gen.Preset(name, scale)
	if err != nil {
		t.Fatal(err)
	}
	x := gen.Random(cfg)
	ranks := gen.PaperRanks(x.Order())
	for n := range ranks {
		ranks[n] = min(ranks[n], x.Dims[n])
	}
	return x, ranks
}

func allConfigs() []struct {
	G Grain
	M Method
} {
	return []struct {
		G Grain
		M Method
	}{
		{Fine, MethodHypergraph},
		{Fine, MethodRandom},
		{Coarse, MethodHypergraph},
		{Coarse, MethodBlock},
	}
}

func TestMakePartitionInvariants(t *testing.T) {
	x := testTensor3(t)
	for _, cfg := range allConfigs() {
		part, err := MakePartition(x, 3, cfg.G, cfg.M, 1)
		if err != nil {
			t.Fatalf("%v-%v: %v", cfg.G, cfg.M, err)
		}
		if part.P != 3 {
			t.Fatalf("%s: P = %d", part.Name(), part.P)
		}
		if cfg.G == Fine {
			if len(part.NZOwner) != x.NNZ() {
				t.Fatalf("%s: %d nonzero owners for %d nonzeros", part.Name(), len(part.NZOwner), x.NNZ())
			}
			for id, o := range part.NZOwner {
				if o < 0 || int(o) >= 3 {
					t.Fatalf("%s: nonzero %d owned by rank %d", part.Name(), id, o)
				}
			}
		}
		for n := 0; n < x.Order(); n++ {
			counts := x.ModeCounts(n)
			if len(part.RowOwner[n]) != x.Dims[n] {
				t.Fatalf("%s mode %d: owner array sized %d", part.Name(), n, len(part.RowOwner[n]))
			}
			for i, o := range part.RowOwner[n] {
				switch {
				case counts[i] == 0 && o != -1:
					t.Fatalf("%s mode %d: empty slice %d owned by %d", part.Name(), n, i, o)
				case counts[i] > 0 && (o < 0 || int(o) >= 3):
					t.Fatalf("%s mode %d: slice %d owner %d out of range", part.Name(), n, i, o)
				}
			}
		}
	}
}

// TestFineHypergraphBalancesTTMc is the fine-grain model's headline
// property, the paper's Table III: hypergraph placement balances the
// TTMc work, every rank's W_TTMc within 1.7x of the average in every
// mode (flickr's shape, p = 4).
func TestFineHypergraphBalancesTTMc(t *testing.T) {
	x, ranks := presetTensor(t, "flickr", 0.02)
	part, err := MakePartition(x, 4, Fine, MethodHypergraph, 4)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Decompose(x, part, Config{Ranks: ranks, MaxIters: 1, Tol: -1, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	for n, perRank := range res.Stats.Mode {
		var sum, most int64
		for _, ms := range perRank {
			sum, most = sum+ms.WTTMc, max(most, ms.WTTMc)
		}
		if avg := float64(sum) / float64(len(perRank)); !(avg > 0 && float64(most) <= 1.7*avg) {
			t.Errorf("%s mode %d: W_TTMc max %d against avg %.0f", part.Name(), n+1, most, avg)
		}
	}
}

func TestMakePartitionErrors(t *testing.T) {
	x := testTensor3(t)
	if _, err := MakePartition(x, 0, Fine, MethodHypergraph, 1); err == nil {
		t.Fatal("accepted 0 ranks")
	}
	empty := tensor.NewCOO([]int{3, 3, 3}, 0)
	if _, err := MakePartition(empty, 2, Fine, MethodHypergraph, 1); err == nil {
		t.Fatal("accepted empty tensor")
	}
}

// The distributed algorithm computes the same HOOI iterates as the
// shared-memory one up to floating-point reassociation in the fold and
// the reduced TRSVD, so the per-sweep fits must agree closely when both
// start from the same factors.
func TestDistributedMatchesSharedMemory(t *testing.T) {
	for _, tc := range []struct {
		name  string
		x     *tensor.COO
		ranks []int
	}{
		{"3mode", testTensor3(t), []int{4, 3, 3}},
		{"4mode", testTensor4(t), []int{2, 2, 3, 2}},
	} {
		initial := DefaultInitial(tc.x.Dims, tc.ranks, 21)
		ref, err := core.Decompose(tc.x, core.Options{
			Ranks: tc.ranks, MaxIters: 3, Tol: -1, Seed: 21, Initial: initial,
		})
		if err != nil {
			t.Fatalf("%s shared-memory: %v", tc.name, err)
		}
		for _, cfg := range allConfigs() {
			part, err := MakePartition(tc.x, 4, cfg.G, cfg.M, 5)
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			res, err := Decompose(tc.x, part, Config{
				Ranks: tc.ranks, MaxIters: 3, Tol: -1, Seed: 21, Initial: initial,
			})
			if err != nil {
				t.Fatalf("%s %s: %v", tc.name, part.Name(), err)
			}
			if res.Iters != ref.Iters || len(res.FitHistory) != len(ref.FitHistory) {
				t.Fatalf("%s %s: %d sweeps vs %d", tc.name, part.Name(), res.Iters, ref.Iters)
			}
			for i := range ref.FitHistory {
				if d := math.Abs(res.FitHistory[i] - ref.FitHistory[i]); d > 1e-6 {
					t.Fatalf("%s %s sweep %d: fit %v vs shared-memory %v (diff %v)",
						tc.name, part.Name(), i, res.FitHistory[i], ref.FitHistory[i], d)
				}
			}
			if len(res.Factors) != tc.x.Order() || res.Core == nil {
				t.Fatalf("%s %s: incomplete result", tc.name, part.Name())
			}
		}
	}
}

func TestDistributedDeterministic(t *testing.T) {
	x := testTensor3(t)
	ranks := []int{3, 3, 3}
	part, err := MakePartition(x, 4, Fine, MethodHypergraph, 7)
	if err != nil {
		t.Fatal(err)
	}
	run := func() *Result {
		res, err := Decompose(x, part, Config{Ranks: ranks, MaxIters: 2, Tol: -1, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Fit != b.Fit {
		t.Fatalf("fit not reproducible: %v vs %v", a.Fit, b.Fit)
	}
	for n := range a.Factors {
		for i := range a.Factors[n].Data {
			if a.Factors[n].Data[i] != b.Factors[n].Data[i] {
				t.Fatalf("factor %d differs at %d", n, i)
			}
		}
	}
}

func TestDistributedStatsPopulated(t *testing.T) {
	x := testTensor3(t)
	part, err := MakePartition(x, 3, Fine, MethodHypergraph, 2)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Decompose(x, part, Config{Ranks: []int{3, 3, 3}, MaxIters: 2, Tol: -1, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stats
	if st == nil || st.P != 3 || len(st.Mode) != x.Order() {
		t.Fatal("stats missing or mis-shaped")
	}
	for n := range st.Mode {
		var sumW, sumComm, sumTRSVD int64
		for _, ms := range st.Mode[n] {
			if ms.WTTMc < 0 || ms.WTRSVD < 0 {
				t.Fatalf("mode %d: negative work", n)
			}
			if ms.ExpandBytes < 0 || ms.FoldBytes < 0 || ms.TRSVDBytes < 0 {
				t.Fatalf("mode %d: negative comm phase bytes", n)
			}
			sumW += ms.WTTMc
			sumComm += ms.CommBytes()
			sumTRSVD += ms.TRSVDBytes
		}
		if sumW == 0 {
			t.Fatalf("mode %d: zero total TTMc work", n)
		}
		if sumComm == 0 {
			t.Fatalf("mode %d: no communication recorded on 3 ranks", n)
		}
		if sumTRSVD == 0 {
			t.Fatalf("mode %d: TRSVD collective bytes not attributed", n)
		}
	}
	if MaxDuration(st.TTMcTime) <= 0 {
		t.Fatal("TTMc time not recorded")
	}
}

func TestSingleRankMatchesSharedMemoryBitwise(t *testing.T) {
	x := testTensor3(t)
	ranks := []int{3, 3, 3}
	initial := DefaultInitial(x.Dims, ranks, 31)
	part, err := MakePartition(x, 1, Fine, MethodHypergraph, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Decompose(x, part, Config{Ranks: ranks, MaxIters: 2, Tol: -1, Seed: 31, Initial: initial})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := core.Decompose(x, core.Options{Ranks: ranks, MaxIters: 2, Tol: -1, Seed: 31, Initial: initial})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Fit-ref.Fit) > 1e-9 {
		t.Fatalf("P=1 fit %v differs from shared-memory %v", res.Fit, ref.Fit)
	}
}
