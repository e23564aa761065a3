package dist

import (
	"context"
	"errors"
	"math"
	"runtime"
	"sync"
	"testing"
	"time"

	"hypertensor/internal/gen"
	"hypertensor/internal/mpi"
	"hypertensor/internal/symbolic"
	"hypertensor/internal/tensor"
)

// localNZ reproduces the rank-local nonzero rule independently of
// newExchange: fine ranks store their NZOwner nonzeros; coarse ranks
// store every nonzero of a slice they own in any mode.
func localNZ(x *tensor.COO, part *Partition, r int) []int32 {
	var ids []int32
	for id := 0; id < x.NNZ(); id++ {
		mine := false
		if part.Grain == Fine {
			mine = int(part.NZOwner[id]) == r
		} else {
			for n := range part.RowOwner {
				if int(part.RowOwner[n][x.Idx[n][id]]) == r {
					mine = true
					break
				}
			}
		}
		if mine {
			ids = append(ids, int32(id))
		}
	}
	return ids
}

// TestExpandPlanExactness verifies the comm plans against a brute-force
// ground truth: each rank's planned recv rows are exactly the mode-n
// rows its local nonzeros touch and it does not own (no unneeded row
// ever travels, no needed row is missed), and the pairwise plans agree
// — rank s's send list for rank d names, in global ids, exactly the
// rows d expects from s, in the same order.
func TestExpandPlanExactness(t *testing.T) {
	x := testTensor3(t)
	gsym := symbolic.Build(x, 0)
	for _, cfg := range allConfigs() {
		for _, p := range []int{2, 3, 4} {
			part, err := MakePartition(x, p, cfg.G, cfg.M, 13)
			if err != nil {
				t.Fatal(err)
			}
			// Derive each rank's plan the way newExchange does.
			type rankPlan struct {
				owned      []int32
				send, recv [][]int32
			}
			plans := make([]rankPlan, p)
			for r := 0; r < p; r++ {
				lsym := symbolic.Build(x.Subset(localNZ(x, part, r)), 1)
				for n := 0; n < x.Order(); n++ {
					var owned []int32
					for _, row := range gsym.Modes[n].Rows {
						if int(part.RowOwner[n][row]) == r {
							owned = append(owned, row)
						}
					}
					send, recv := expandPlan(n, r, x, part, gsym, lsym, owned)

					// Ground truth: rows touched by r's local nonzeros.
					touched := map[int32]bool{}
					for _, id := range localNZ(x, part, r) {
						touched[x.Idx[n][id]] = true
					}
					var planned int
					for o := 0; o < p; o++ {
						for i, row := range recv[o] {
							planned++
							if !touched[row] {
								t.Fatalf("%s p=%d rank %d mode %d: recv row %d never touched locally", part.Name(), p, r, n, row)
							}
							if int(part.RowOwner[n][row]) != o {
								t.Fatalf("%s p=%d rank %d mode %d: recv row %d expected from %d, owner is %d",
									part.Name(), p, r, n, row, o, part.RowOwner[n][row])
							}
							if i > 0 && recv[o][i-1] >= row {
								t.Fatalf("%s p=%d rank %d mode %d: recv rows from %d not ascending", part.Name(), p, r, n, o)
							}
						}
					}
					var want int
					for row := range touched {
						if int(part.RowOwner[n][row]) != r {
							want++
						}
					}
					if planned != want {
						t.Fatalf("%s p=%d rank %d mode %d: plan receives %d rows, local nonzeros need %d",
							part.Name(), p, r, n, planned, want)
					}
					if n == 0 {
						plans[r] = rankPlan{owned: owned, send: send, recv: recv}
					}
				}
			}
			// Pairwise agreement in mode 0: s's send[d], mapped to global
			// ids, is d's recv[s], element for element.
			for s := 0; s < p; s++ {
				for d := 0; d < p; d++ {
					sent := plans[s].send[d]
					got := plans[d].recv[s]
					if len(sent) != len(got) {
						t.Fatalf("%s p=%d: %d->%d plan sizes disagree: send %d recv %d",
							part.Name(), p, s, d, len(sent), len(got))
					}
					for i, k := range sent {
						if plans[s].owned[k] != got[i] {
							t.Fatalf("%s p=%d: %d->%d slot %d: sender ships row %d, receiver expects %d",
								part.Name(), p, s, d, i, plans[s].owned[k], got[i])
						}
					}
				}
			}
		}
	}
}

// TestSparseMatchesDenseBitwise is the PR's determinism contract: the
// sparse point-to-point exchange and the dense collectives produce
// bitwise-identical fit trajectories, factors, and cores across grains
// and placement methods.
func TestSparseMatchesDenseBitwise(t *testing.T) {
	for _, tc := range []struct {
		name  string
		x     *tensor.COO
		ranks []int
	}{
		{"3mode", testTensor3(t), []int{4, 3, 3}},
		{"4mode", testTensor4(t), []int{2, 2, 3, 2}},
	} {
		initial := DefaultInitial(tc.x.Dims, tc.ranks, 23)
		for _, cfg := range allConfigs() {
			part, err := MakePartition(tc.x, 4, cfg.G, cfg.M, 19)
			if err != nil {
				t.Fatal(err)
			}
			cfg := Config{Ranks: tc.ranks, MaxIters: 3, Tol: -1, Seed: 23, Initial: initial}
			sparse, err := Decompose(tc.x, part, cfg)
			if err != nil {
				t.Fatalf("%s %s sparse: %v", tc.name, part.Name(), err)
			}
			dense, err := decomposeDense(tc.x, part, cfg)
			if err != nil {
				t.Fatalf("%s %s dense: %v", tc.name, part.Name(), err)
			}
			if len(sparse.FitHistory) != len(dense.FitHistory) {
				t.Fatalf("%s %s: sweep counts differ", tc.name, part.Name())
			}
			for i := range dense.FitHistory {
				if math.Float64bits(sparse.FitHistory[i]) != math.Float64bits(dense.FitHistory[i]) {
					t.Fatalf("%s %s sweep %d: sparse fit %v != dense %v",
						tc.name, part.Name(), i, sparse.FitHistory[i], dense.FitHistory[i])
				}
			}
			for n := range dense.Factors {
				for i := range dense.Factors[n].Data {
					if math.Float64bits(sparse.Factors[n].Data[i]) != math.Float64bits(dense.Factors[n].Data[i]) {
						t.Fatalf("%s %s: factor %d differs at %d", tc.name, part.Name(), n, i)
					}
				}
			}
			for i := range dense.Core.Data {
				if math.Float64bits(sparse.Core.Data[i]) != math.Float64bits(dense.Core.Data[i]) {
					t.Fatalf("%s %s: core differs at %d", tc.name, part.Name(), i)
				}
			}
		}
	}
}

// TestSparseMatchesDenseTCP extends the bitwise contract across
// transports: a sparse-exchange run over a real TCP mesh reproduces the
// dense simulated trajectory exactly, and sends strictly fewer payload
// bytes.
func TestSparseMatchesDenseTCP(t *testing.T) {
	x := testTensor3(t)
	ranks := []int{3, 3, 3}
	const p = 4
	part, err := MakePartition(x, p, Fine, MethodHypergraph, 11)
	if err != nil {
		t.Fatal(err)
	}
	dense, err := decomposeDense(x, part, Config{Ranks: ranks, MaxIters: 3, Tol: -1, Seed: 29})
	if err != nil {
		t.Fatal(err)
	}

	worlds := tcpWorlds(t, p)
	results := make([]*Result, p)
	errs := make([]error, p)
	var wg sync.WaitGroup
	wg.Add(p)
	for r := 0; r < p; r++ {
		go func(r int) {
			defer wg.Done()
			defer worlds[r].Close()
			results[r], errs[r] = DecomposeWorld(context.Background(), worlds[r], x, part,
				Config{Ranks: ranks, MaxIters: 3, Tol: -1, Seed: 29})
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	for r, res := range results {
		for i := range dense.FitHistory {
			if math.Float64bits(res.FitHistory[i]) != math.Float64bits(dense.FitHistory[i]) {
				t.Fatalf("rank %d sweep %d: tcp sparse fit %v != sim dense %v", r, i, res.FitHistory[i], dense.FitHistory[i])
			}
		}
		for n := range dense.Factors {
			for i := range dense.Factors[n].Data {
				if math.Float64bits(res.Factors[n].Data[i]) != math.Float64bits(dense.Factors[n].Data[i]) {
					t.Fatalf("rank %d: factor %d differs at %d", r, n, i)
				}
			}
		}
		if res.Stats.TotalSentBytes() >= dense.Stats.TotalSentBytes() {
			t.Fatalf("rank %d: sparse sent %d B, not below dense %d B",
				r, res.Stats.TotalSentBytes(), dense.Stats.TotalSentBytes())
		}
	}
}

// TestSparsePayloadMatchesCutModel pins the realized-equals-modeled
// claim to the byte: the expand and fold payloads a sparse-exchange
// sweep actually sends equal the hypergraph cut model's prediction
// Σ_nets (λ-1)·(R_n or rowsize_n)·8 exactly, for both grains.
func TestSparsePayloadMatchesCutModel(t *testing.T) {
	x := testTensor3(t)
	ranks := []int{3, 3, 3}
	for _, cfg := range allConfigs() {
		for _, p := range []int{2, 3, 4} {
			part, err := MakePartition(x, p, cfg.G, cfg.M, 17)
			if err != nil {
				t.Fatal(err)
			}
			res, err := Decompose(x, part, Config{Ranks: ranks, MaxIters: 2, Tol: -1, Seed: 31})
			if err != nil {
				t.Fatalf("%s: %v", part.Name(), err)
			}
			var expand, fold int64
			for n := range res.Stats.Mode {
				for _, ms := range res.Stats.Mode[n] {
					expand += ms.ExpandBytes
					fold += ms.FoldBytes
				}
			}
			wantE, wantF := ModeledCommVolume(x, part, ranks)
			if expand != wantE {
				t.Fatalf("%s p=%d: realized expand %d B, cut model predicts %d B", part.Name(), p, expand, wantE)
			}
			if fold != wantF {
				t.Fatalf("%s p=%d: realized fold %d B, cut model predicts %d B", part.Name(), p, fold, wantF)
			}
			if cfg.G == Coarse && fold != 0 {
				t.Fatalf("%s: coarse grain folded %d B; owned rows are complete locally", part.Name(), fold)
			}
		}
	}
}

// TestPresetPayloadMatchesCutModel carries the same claim to the
// paper's datasets at their paper ranks: on every preset, at p = 2 and
// 4, under fine-grain hypergraph, random and block placement, one
// sweep's realized expand+fold payload equals the cut model's bytes.
// So the hypergraph's cutsize advantage is the wire's advantage.
func TestPresetPayloadMatchesCutModel(t *testing.T) {
	for _, name := range gen.PresetNames() {
		x, ranks := presetTensor(t, name, 0.02)
		for _, p := range []int{2, 4} {
			for _, m := range []Method{MethodHypergraph, MethodRandom, MethodBlock} {
				part, err := MakePartition(x, p, Fine, m, 6)
				if err != nil {
					t.Fatal(err)
				}
				res, err := Decompose(x, part, Config{Ranks: ranks, MaxIters: 1, Tol: -1, Seed: 7})
				if err != nil {
					t.Fatalf("%s %s: %v", name, part.Name(), err)
				}
				var realized int64
				for n := range res.Stats.Mode {
					for _, ms := range res.Stats.Mode[n] {
						realized += ms.ExpandBytes + ms.FoldBytes
					}
				}
				wantE, wantF := ModeledCommVolume(x, part, ranks)
				if realized != wantE+wantF {
					t.Errorf("%s %s p=%d: realized %d B, cut model predicts %d B", name, part.Name(), p, realized, wantE+wantF)
				}
			}
		}
	}
}

// TestSparseExchangeFailureNoLeak drives the full distributed solve
// into a mid-exchange kill on the simulated transport: the run fails
// with the injected typed error and leaves no goroutines behind.
func TestSparseExchangeFailureNoLeak(t *testing.T) {
	x := testTensor3(t)
	part, err := MakePartition(x, 3, Fine, MethodHypergraph, 7)
	if err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	w := mpi.NewWorld(3)
	// Op 40 lands inside the first sweep's plan-driven exchanges (the
	// initial barrier and fold sends come first), so the kill interrupts
	// a sparse exchange with peers mid-conversation.
	w.InjectFaults(mpi.FaultConfig{Seed: 5, KillRank: 1, KillAtOp: 40})
	_, err = DecomposeWorld(context.Background(), w, x, part, Config{Ranks: []int{3, 3, 3}, MaxIters: 3, Tol: -1, Seed: 7})
	if err == nil {
		t.Fatal("injected kill did not fail the run")
	}
	if !errors.Is(err, mpi.ErrPeerDied) {
		t.Fatalf("want ErrPeerDied, got %v", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Fatalf("goroutines leaked: %d before, %d after", before, n)
	}
}
