package dist

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"hypertensor/internal/core"
	"hypertensor/internal/dense"
	"hypertensor/internal/gen"
	"hypertensor/internal/mpi"
	"hypertensor/internal/tensor"
	"hypertensor/internal/trsvd"
)

// Options from outside the program must come back as plain errors, from
// the shared-memory planner and the distributed driver alike — never as
// a rank's index-out-of-range panic, and never as a nil result with a
// nil error.
func TestInvalidOptionsArePlainErrors(t *testing.T) {
	x := testTensor3(t)
	ranks := []int{3, 3, 3}
	good := DefaultInitial(x.Dims, ranks, 1)
	part, err := MakePartition(x, 2, Fine, MethodBlock, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name     string
		ranks    []int
		maxIters int
		initial  []*dense.Matrix
	}{
		{"short initial", ranks, 2, good[:2]},
		{"initial with too few rows", ranks, 2, []*dense.Matrix{dense.NewMatrix(9, 3), good[1], good[2]}},
		{"initial with the wrong rank", ranks, 2, DefaultInitial(x.Dims, []int{3, 2, 3}, 1)},
		{"negative MaxIters", ranks, -1, nil},
		{"too few ranks", ranks[:2], 2, nil},
		{"rank above the mode size", []int{3, 3, 21}, 2, nil},
	} {
		_, planErr := core.NewPlan(x, core.Options{Ranks: tc.ranks, MaxIters: tc.maxIters, Initial: tc.initial})
		res, distErr := Decompose(x, part, Config{Ranks: tc.ranks, MaxIters: tc.maxIters, Initial: tc.initial})
		if res != nil {
			t.Errorf("%s: dist.Decompose returned a result", tc.name)
		}
		for what, err := range map[string]error{"core.NewPlan": planErr, "dist.Decompose": distErr} {
			if err == nil {
				t.Errorf("%s: %s accepted it", tc.name, what)
			} else if strings.Contains(err.Error(), "panicked") {
				t.Errorf("%s: %s surfaced a panic: %v", tc.name, what, err)
			}
		}
	}
	if _, err := Decompose(x, nil, Config{Ranks: ranks}); err == nil {
		t.Error("dist.Decompose accepted a nil partition")
	}
}

// Every payload byte a rank sends belongs to a named phase: at one
// sweep the per-mode expand, fold and TRSVD bytes plus the core
// AllReduce and the final factor assembly add up to SentBytes exactly.
func TestSentBytesFullyAttributed(t *testing.T) {
	x := testTensor4(t)
	for _, pc := range allConfigs() {
		part, err := MakePartition(x, 3, pc.G, pc.M, 7)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Decompose(x, part, Config{Ranks: []int{2, 2, 3, 2}, MaxIters: 1, Tol: -1, Seed: 5})
		if err != nil {
			t.Fatalf("%s: %v", part.Name(), err)
		}
		st := res.Stats
		for r := 0; r < st.P; r++ {
			if st.CoreBytes[r] == 0 || st.AssembleBytes[r] == 0 {
				t.Fatalf("%s rank %d: core %d B, assemble %d B not recorded", part.Name(), r, st.CoreBytes[r], st.AssembleBytes[r])
			}
			sum := st.CoreBytes[r] + st.AssembleBytes[r]
			for n := range st.Mode {
				sum += st.Mode[n][r].CommBytes()
			}
			if sum != st.SentBytes[r] {
				t.Fatalf("%s rank %d: phases account for %d of %d B sent", part.Name(), r, sum, st.SentBytes[r])
			}
		}
	}
}

// The expand writes into the resident factor through plan-sized
// buffers: once the first sweep has grown the arenas, a sweep allocates
// nothing the size of a factor. The tall mode has far more slices than
// nonzeros, so dims[0]×R dwarfs everything a sweep legitimately
// allocates (solver results over the nonempty rows, message copies).
func TestSteadyStateSweepAllocatesNoFactorSizedBlock(t *testing.T) {
	x := gen.Random(gen.Config{Dims: []int{200000, 30, 20}, NNZ: 1500, Skew: 0.3, Seed: 3})
	ranks := []int{3, 3, 3}
	part, err := MakePartition(x, 2, Fine, MethodBlock, 1)
	if err != nil {
		t.Fatal(err)
	}
	allocated := func(sweeps int) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := Decompose(x, part, Config{Ranks: ranks, MaxIters: sweeps, Tol: -1, Seed: 9}); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	const extra = 4
	perSweep := (allocated(2+extra) - allocated(2)) / extra
	factorBytes := uint64(x.Dims[0] * ranks[0] * 8)
	t.Logf("steady-state sweep allocates %d B; one mode-0 factor is %d B", perSweep, factorBytes)
	if perSweep >= factorBytes/2 {
		t.Fatalf("a steady-state sweep of the 2-rank world allocates %d B; one mode-0 factor is %d B", perSweep, factorBytes)
	}
}

// The seam between the exchange and the rank's compute carries either
// kernel a rank plans with: on an order-4 tensor a fine-grain rank plans
// the dimension tree and a coarse-grain one, whose update lists are
// restricted to the slices it owns, the flat kernel. The two worlds
// converge to the same fit, and the tree executes at most half of the
// nominal W_TTMc multiply-adds on every rank, and fewer in all than the
// flat world.
func TestRankPlansCarryAnyKernel(t *testing.T) {
	x := gen.Random(gen.Config{Dims: []int{40, 30, 35, 25}, NNZ: 3000, Skew: 0.4, Seed: 12})
	cfg := Config{Ranks: []int{3, 3, 3, 3}, MaxIters: 4, Tol: -1, Seed: 2}
	var worlds [2]*Result
	var madds [2]int64
	for i, g := range []Grain{Fine, Coarse} {
		part, err := MakePartition(x, 3, g, MethodHypergraph, 4)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Decompose(x, part, cfg)
		if err != nil {
			t.Fatalf("%s: %v", part.Name(), err)
		}
		for r, m := range res.Stats.TTMcMadds {
			var nominal int64
			for n := range res.Stats.Mode {
				nominal += res.Stats.Mode[n][r].WTTMc * int64(cfg.MaxIters)
			}
			if (g == Fine && 2*m > nominal) || m > nominal {
				t.Fatalf("%s rank %d: %d TTMc madds, nominal %d", part.Name(), r, m, nominal)
			}
			madds[i] += m
		}
		worlds[i] = res
	}
	tree, flat := worlds[0], worlds[1]
	for i, fit := range flat.FitHistory {
		if d := math.Abs(tree.FitHistory[i] - fit); d > 1e-8 {
			t.Fatalf("sweep %d: fine-grain fit %v, coarse-grain %v (diff %v)", i, tree.FitHistory[i], fit, d)
		}
	}
	if madds[0] >= madds[1] {
		t.Fatalf("the fine-grain world executed %d TTMc madds, the coarse-grain one %d", madds[0], madds[1])
	}
}

// foldWitness is a rank's exchange with a memory: it keeps a copy of
// what every Fold returned and checks later that the matrix still says
// the same.
type foldWitness struct {
	*exchange
	t    *testing.T
	kept []keptFold
}

type keptFold struct {
	in, out *dense.Matrix
	copy    []float64
}

func (w *foldWitness) intact(n int, when string) {
	if k := w.kept[n]; k.out != nil && !reflect.DeepEqual(k.out.Data, k.copy) {
		w.t.Errorf("rank %d mode %d: the folded rows changed before %s", w.me, n, when)
	}
}

func (w *foldWitness) Fold(n int, y *dense.Matrix, rows []int32) (*dense.Matrix, []int32) {
	if k := w.kept[n]; k.out != k.in {
		w.intact(n, "the next Fold of the same mode")
	}
	out, outRows := w.exchange.Fold(n, y, rows)
	w.kept[n] = keptFold{in: y, out: out, copy: append([]float64(nil), out.Data...)}
	return out, outRows
}

func (w *foldWitness) Expand(n int, factor *dense.Matrix) {
	w.intact(n, "the mode was solved")
	w.exchange.Expand(n, factor)
}

func (w *foldWitness) ReduceCore(g []float64) {
	w.intact(len(w.kept)-1, "the core was formed")
	w.exchange.ReduceCore(g)
}

// The engine computes every mode's product into one shared buffer, so
// what Fold is handed lives only until the next mode's TTMc. The
// exchange's contract has to hold all the same: rows it returns as its
// own (the fine grain's folded owned rows) stay valid until the next
// Fold of the same mode, a whole sweep later; rows it passes through
// (the coarse grain) hold through the mode's solve, and the last
// mode's until the core is formed.
func TestFoldResultsOutliveTheSharedBuffer(t *testing.T) {
	for _, x := range []*tensor.COO{testTensor3(t), testTensor4(t)} {
		ranks := make([]int, x.Order())
		for n := range ranks {
			ranks[n] = 2
		}
		cfg := Config{Ranks: ranks, MaxIters: 3, Tol: -1, Seed: 5}
		for _, grain := range []Grain{Fine, Coarse} {
			part, err := MakePartition(x, 3, grain, MethodHypergraph, 3)
			if err != nil {
				t.Fatal(err)
			}
			plain, err := Decompose(x, part, cfg)
			if err != nil {
				t.Fatal(err)
			}
			watched, err := decompose(context.Background(), mpi.NewWorld(part.P), x, part, cfg, seam{
				wrap: func(ex *exchange) core.Exchange {
					return &foldWitness{exchange: ex, t: t, kept: make([]keptFold, x.Order())}
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(watched.FitHistory, plain.FitHistory) {
				t.Fatalf("%s: the witness changed the run", part.Name())
			}
		}
	}
}

// The Gram solver on a row-distributed matrix, straight through
// rowDistOperator: the rows are dealt to three ranks, the last of which
// gets none. Every rank must return the same singular values, bit for
// bit (its branches are taken on replicated values, so no rank waits in
// a collective the others skip), the stacked rows must span what a
// one-rank solve spans, and a well-conditioned solve must enter two
// collectives — whatever the spectrum: a steep one runs the
// orthogonality repair, a rank-deficient one the basis completion, whose
// fill is seeded by global row id.
func TestGramOnRowDistributedOperator(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	withSpectrum := func(m, n int, s []float64) *dense.Matrix {
		u := dense.Orthonormalize(dense.RandomNormal(m, len(s), rng), 1)
		v := dense.Orthonormalize(dense.RandomNormal(n, len(s), rng), 1)
		for i := 0; i < m; i++ {
			for j, sv := range s {
				u.Row(i)[j] *= sv
			}
		}
		return dense.MatMul(u, v.T(), 1)
	}
	dup := dense.NewMatrix(60, 12) // two distinct rows, 30 times each
	for i, pair := 0, dense.RandomNormal(2, 12, rng); i < dup.Rows; i++ {
		copy(dup.Row(i), pair.Row(i%2))
	}
	const p = 3
	for _, tc := range []struct {
		name     string
		a        *dense.Matrix
		k        int
		maxMsgs  int64
		subspace bool // the k-dimensional leading subspace is well defined
	}{
		{"well conditioned", withSpectrum(90, 12, []float64{9, 7, 5, 3, 2, 1}), 4, 2, true},
		{"sigma1/sigmaK = 1e6", withSpectrum(90, 12, []float64{1e3, 1e1, 1e-1, 1e-3}), 4, 2, true},
		{"rank 2, four wanted", withSpectrum(90, 12, []float64{5, 2}), 4, 1 << 20, false},
		{"duplicate rows", dup, 2, 2, true},
	} {
		a := tc.a
		one, err := trsvd.Gram(&trsvd.DenseOperator{A: a, Threads: 1}, tc.k, trsvd.Options{Seed: 4})
		if err != nil {
			t.Fatal(err)
		}
		// Rows 0, 2, 4, … to rank 0, the odd ones to rank 1, none to rank 2.
		results := make([]*trsvd.Result, p)
		msgs := make([]int64, p)
		err = mpi.NewWorld(p).Run(func(c *mpi.Comm) {
			me := c.Rank()
			var gids []int64
			for i := me; i < a.Rows && me < 2; i += 2 {
				gids = append(gids, int64(i))
			}
			local := dense.NewMatrix(len(gids), a.Cols)
			for r, g := range gids {
				copy(local.Row(r), a.Row(int(g)))
			}
			var sent int64
			op := &rowDistOperator{a: local, c: c, gids: gids, tmp: make([]float64, a.Cols), sent: &sent, msgs: &msgs[me]}
			res, err := trsvd.Gram(op, tc.k, trsvd.Options{Seed: 4})
			if err != nil {
				panic(err)
			}
			results[me] = res
		})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		stacked := dense.NewMatrix(a.Rows, tc.k)
		for me, res := range results {
			if !reflect.DeepEqual(res.Sigma, results[0].Sigma) {
				t.Fatalf("%s: rank %d computed sigma %v, rank 0 %v", tc.name, me, res.Sigma, results[0].Sigma)
			}
			if msgs[me] != msgs[0] || msgs[me] > tc.maxMsgs {
				t.Fatalf("%s: rank %d entered %d collectives, rank 0 %d, bound %d", tc.name, me, msgs[me], msgs[0], tc.maxMsgs)
			}
			for r := 0; r < res.U.Rows; r++ {
				copy(stacked.Row(me+2*r), res.U.Row(r))
			}
		}
		gram := dense.MatMulTA(stacked, stacked, 1)
		if !gram.Equal(dense.Identity(tc.k), 1e-10) {
			t.Fatalf("%s: the stacked basis is not orthonormal: %v", tc.name, gram)
		}
		for i, s := range one.Sigma {
			if d := math.Abs(results[0].Sigma[i] - s); !(d <= 1e-9*(1+one.Sigma[0])) {
				t.Fatalf("%s: sigma[%d] = %v distributed, %v on one rank", tc.name, i, results[0].Sigma[i], s)
			}
		}
		if proj := dense.MatMulTA(one.U, stacked, 1); tc.subspace && !dense.MatMulTA(proj, proj, 1).Equal(dense.Identity(tc.k), 1e-8) {
			t.Fatalf("%s: the distributed solve spans a different subspace than the one-rank solve", tc.name)
		}
	}
}
