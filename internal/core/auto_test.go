package core

import (
	"bytes"
	"context"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"testing"

	"hypertensor/internal/checkpoint"
	"hypertensor/internal/dense"
	"hypertensor/internal/gen"
	"hypertensor/internal/par"
	"hypertensor/internal/symbolic"
	"hypertensor/internal/tensor"
	"hypertensor/internal/ttm"
)

func mustRun(t *testing.T, x *tensor.COO, opts Options) *Result {
	t.Helper()
	res, err := Decompose(x, opts)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TTMcAuto is resolved once, at plan time, from what the plan can see:
// the order, whether there is anything to contract, and — for a rank
// plan — whether the caller's update lists cover every local nonzero.
// A pinned strategy is kept as given.
func TestTTMcAutoResolution(t *testing.T) {
	for order := 1; order <= 5; order++ {
		dims, ranks := make([]int, order), make([]int, order)
		for n := range dims {
			dims[n], ranks[n] = 9+n, 2
		}
		if order == 1 {
			ranks[0] = 1
		}
		x := gen.Random(gen.Config{Dims: dims, NNZ: 60 * order, Seed: int64(order)})
		want := TTMcFlat
		if order >= 4 {
			want = TTMcDTree
		}
		opts := Options{Ranks: ranks, MaxIters: 2, Tol: -1, Seed: 1}
		p, err := NewPlan(x, opts)
		if err != nil {
			t.Fatalf("order %d: %v", order, err)
		}
		if p.TTMc() != want || p.Options().ttmc != want {
			t.Fatalf("order %d: auto resolved to %v, want %v", order, p.TTMc(), want)
		}
		res, err := NewEngine(p).Run(context.Background())
		if err != nil {
			t.Fatalf("order %d: %v", order, err)
		}
		if res.TTMc != want {
			t.Fatalf("order %d: result reports %v, want %v", order, res.TTMc, want)
		}
		for _, explicit := range []TTMcStrategy{TTMcFlat, TTMcDTree} {
			if explicit == TTMcDTree && order < 2 {
				continue
			}
			opts.ttmc = explicit
			if p, err := NewPlan(x, opts); err != nil || p.TTMc() != explicit {
				t.Fatalf("order %d: explicit %v became %v (err %v)", order, explicit, p.TTMc(), err)
			}
		}
	}

	// Rank plans: a fine-grain rank hands over the full update lists of
	// its local tensor (or none), a coarse-grain rank lists restricted
	// to the slices it owns, and a rank may hold no nonzero at all.
	x4 := gen.Random(gen.Config{Dims: []int{9, 10, 11, 12}, NNZ: 300, Seed: 4})
	opts := Options{Ranks: []int{2, 2, 2, 2}}
	full := symbolic.Build(x4, 1)
	restricted := &symbolic.Structure{Modes: make([]symbolic.Mode, 4)}
	for n := range restricted.Modes {
		restricted.Modes[n] = full.Modes[n].Select([]int32{0, 2})
	}
	for _, tc := range []struct {
		name string
		x    *tensor.COO
		sym  *symbolic.Structure
		want TTMcStrategy
	}{
		{"fine, caller's lists", x4, full, TTMcDTree},
		{"fine, no lists", x4, nil, TTMcDTree},
		{"coarse, restricted lists", x4, restricted, TTMcFlat},
		{"idle rank", tensor.NewCOO(x4.Dims, 0), nil, TTMcFlat},
	} {
		if got := NewRankPlan(tc.x, opts, 1, tc.sym, nil).TTMc(); got != tc.want {
			t.Fatalf("rank plan (%s) resolved to %v, want %v", tc.name, got, tc.want)
		}
	}

	for s, name := range []string{"auto", "flat", "dtree"} {
		if got := TTMcStrategy(s).String(); got != name {
			t.Fatalf("TTMcStrategy(%d).String() = %q, want %q", s, got, name)
		}
	}
}

// On an order-4 tensor the zero Options value IS the dimension tree —
// bit for bit — and agrees with the flat path to rounding.
func TestAutoIsTheTreeOnOrder4(t *testing.T) {
	x, ranks := presetTensor(t, "flickr", 0.02)
	base := Options{Ranks: ranks, MaxIters: 4, Tol: -1, Seed: 7, Threads: 2}
	auto := mustRun(t, x, base)
	tree, flat := base, base
	tree.ttmc, flat.ttmc = TTMcDTree, TTMcFlat
	rt, rf := mustRun(t, x, tree), mustRun(t, x, flat)
	resultsBitwiseEqual(t, "auto vs explicit dtree", auto, rt)
	if auto.TTMcFlops != rt.TTMcFlops {
		t.Fatalf("auto executed %d madds, explicit dtree %d", auto.TTMcFlops, rt.TTMcFlops)
	}
	for i := range rf.FitHistory {
		if d := math.Abs(auto.FitHistory[i] - rf.FitHistory[i]); !(d <= 1e-10) {
			t.Fatalf("sweep %d: auto fit %.17g is %.3g off flat's %.17g", i+1, auto.FitHistory[i], d, rf.FitHistory[i])
		}
	}
	// Against the nominal nnz x row size of every mode: the flat kernel
	// factors runs out of it too, and must land between the two.
	nominal := ttm.SweepFlops(x.NNZ(), rf.Factors) * int64(rf.Iters)
	if 2*auto.TTMcFlops > nominal {
		t.Fatalf("auto executed %d madds, more than half of the nominal %d", auto.TTMcFlops, nominal)
	}
	if rf.TTMcFlops <= auto.TTMcFlops || rf.TTMcFlops >= nominal {
		t.Fatalf("flat executed %d madds, not between the tree's %d and the nominal %d", rf.TTMcFlops, auto.TTMcFlops, nominal)
	}
}

// The default path keeps the determinism contract: the same bits for
// every thread count.
func TestAutoThreadInvariant(t *testing.T) {
	x, ranks := presetTensor(t, "delicious", 0.02)
	var ref *Result
	for _, threads := range []int{1, 2, 4} {
		res := mustRun(t, x, Options{Ranks: ranks, MaxIters: 4, Tol: -1, Seed: 3, Threads: threads})
		if res.TTMc != TTMcDTree {
			t.Fatalf("order-4 default ran %v", res.TTMc)
		}
		if ref == nil {
			ref = res
			continue
		}
		resultsBitwiseEqual(t, "the thread count changed the default path's bits", ref, res)
	}
}

// Resume ≡ uninterrupted under the default options of an order-4 run.
func TestAutoResumeBitwise(t *testing.T) {
	x, ranks := presetTensor(t, "flickr", 0.02)
	opts := Options{Ranks: ranks, MaxIters: 6, Tol: -1, Seed: 7, Threads: 2}
	full := mustRun(t, x, opts)

	dir := t.TempDir()
	p, err := NewPlan(x, opts)
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(p)
	e.EnableCheckpoints(dir, 3)
	if _, err := e.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(filepath.Join(dir, checkpoint.FileName(3)))
	if err != nil {
		t.Fatal(err)
	}
	p2, err := NewPlan(x, opts)
	if err != nil {
		t.Fatal(err)
	}
	e2, err := ResumeEngine(p2, bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	resumed, err := e2.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	resultsBitwiseEqual(t, "resumed default run diverged", full, resumed)
}

// updateVsColdRebuild states what Update is: the delta merged into the
// tensor, the kernel built on the result, and sweeps from the factors
// and seed position the engine was in. An engine built cold on the
// merged tensor and handed that state must do the same thing bit for
// bit. e has run; it is updated with delta.
func updateVsColdRebuild(t *testing.T, e *Engine, x, delta *tensor.COO, opts Options) {
	t.Helper()
	warm := e.SnapshotState()
	updated, err := e.Update(delta)
	if err != nil {
		t.Fatal(err)
	}

	merged := x.Clone()
	if _, err := merged.Merge(delta); err != nil {
		t.Fatal(err)
	}
	pc, err := NewPlan(merged, opts)
	if err != nil {
		t.Fatal(err)
	}
	// The warm state, re-addressed to the merged tensor with no sweep
	// done on it yet.
	warm.NormX, warm.Sweep, warm.FitHistory, warm.Core = pc.normX, 0, nil, nil
	cold, err := ResumeEngineState(pc, warm)
	if err != nil {
		t.Fatal(err)
	}
	rebuilt, err := cold.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	resultsBitwiseEqual(t, "update on the resident engine vs cold rebuild", updated, rebuilt)
}

// Update ≡ cold rebuild whatever the resident tree held when the delta
// arrived — here, after whole sweeps of buffer hand-overs: one memo node
// valid, in the buffer its sibling died in.
func TestUpdateOnRecycledTreeMatchesColdRebuild(t *testing.T) {
	x, ranks := presetTensor(t, "flickr", 0.02)
	opts := Options{Ranks: ranks, MaxIters: 4, Tol: -1, Seed: 3, Threads: 2}
	p, err := NewPlan(x, opts)
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(p)
	if _, err := e.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	valid := 0
	for _, ni := range e.kern.Nodes() {
		if ni.Valid {
			valid++
		}
	}
	if valid != 1 {
		t.Fatalf("%d memo nodes valid after a run, want 1 (the other's buffer recycled)", valid)
	}
	updateVsColdRebuild(t, e, x, gen.Delta(x, 0.01, 0.01, 5), opts)
}

// Shapes whose coordinates do not linearize into 64 bits — the paper's
// 4-mode tensors are such, and most shapes from order 6 up — go through
// the same path, under either kernel. (The true Table I shapes are
// exercised where the limit was, in internal/tensor; an engine on them
// would hold 20M-row factors.)
func TestUpdateOnWideShapesMatchesColdRebuild(t *testing.T) {
	for _, dims := range [][]int{{60_000, 70_000, 50_000, 65_000}, {2000, 3000, 1500, 2500, 1800, 2200}} {
		x := gen.Random(gen.Config{Dims: dims, NNZ: 4000, Skew: 0.9, Seed: 31})
		ranks := make([]int, len(dims))
		for n := range ranks {
			ranks[n] = 2
		}
		for _, strategy := range []TTMcStrategy{TTMcFlat, TTMcDTree} {
			opts := Options{Ranks: ranks, MaxIters: 3, Tol: -1, Seed: 3, Threads: 2, ttmc: strategy}
			p, err := NewPlan(x, opts)
			if err != nil {
				t.Fatal(err)
			}
			e := NewEngine(p)
			if _, err := e.Run(context.Background()); err != nil {
				t.Fatal(err)
			}
			updateVsColdRebuild(t, e, x, gen.Delta(x, 0.02, 0.02, 7), opts)
		}
	}
}

// epsReference is the adaptive-rank sweep written out with a Y of its
// own for every mode of every sweep: what Engine.converge computes
// under Eps, minus the shared buffer.
func epsReference(t *testing.T, x *tensor.COO, opts Options) (fits []float64, factors []*dense.Matrix, cols [][]int) {
	t.Helper()
	opts = opts.withDefaults()
	sym := symbolic.Build(x, opts.Threads)
	state := NewSweepState(InitialFactors(x.Dims, startRanks(x, opts), opts.Seed, opts.Threads), opts.Seed)
	normX := x.Norm(opts.Threads)
	order := x.Order()
	for iter := 0; iter < opts.MaxIters; iter++ {
		var y *dense.Matrix
		var sweepCols []int
		for n := 0; n < order; n++ {
			sm := &sym.Modes[n]
			y = dense.NewMatrix(sm.NumRows(), ttm.RowSize(state.Factors, n))
			sweepCols = append(sweepCols, y.Cols)
			ttm.TTMcSched(y, x, sm, state.Factors, opts.Threads, par.ScheduleBalanced)
			tau := opts.Eps * opts.Eps * normX * normX / float64(order)
			uc, rank, _, err := state.SolveDenseEps(y, state.Factors[n].Cols, 0, opts.Threads, tau, frobSq(y, opts.Threads))
			if err != nil {
				t.Fatal(err)
			}
			if rank != state.Factors[n].Cols {
				state.Factors[n] = dense.NewMatrix(x.Dims[n], rank)
			}
			state.Factors[n].Zero()
			scatterRows(state.Factors[n], uc, sm.Rows)
		}
		last := order - 1
		ranks := make([]int, order)
		for n, u := range state.Factors {
			ranks[n] = u.Cols
		}
		gm := ttm.CoreMatricized(y, sym.Modes[last].Rows, state.Factors[last], opts.Threads)
		g := ttm.CoreFromMatricized(gm, ranks, last)
		fits = append(fits, FitFromNorms(normX, g.Norm()))
		cols = append(cols, sweepCols)
	}
	return fits, state.Factors, cols
}

// Adaptive ranks change Y's column count from one mode to the next
// inside a sweep; every mode's view of the shared buffer must be shaped
// for the ranks of the moment and must not see what the mode before it
// left there.
func TestSharedYUnderChangingRanks(t *testing.T) {
	x := gen.Random(gen.Config{Dims: []int{30, 25, 20}, NNZ: 1200, Skew: 0.5, Seed: 21})
	opts := Options{Eps: 0.5, MaxIters: 4, Tol: -1, Seed: 13, ttmc: TTMcFlat}
	fits, factors, cols := epsReference(t, x, opts)
	changed := false
	for n := range cols[0] {
		changed = changed || cols[0][n] != cols[1][n]
	}
	if !changed {
		t.Fatalf("column counts %v never changed; the run does not exercise a reshape", cols)
	}
	res := mustRun(t, x, opts)
	bitsEqual(t, "fit history vs per-mode buffers", res.FitHistory, fits)
	for n := range factors {
		bitsEqual(t, "factor vs per-mode buffers", res.Factors[n].Data, factors[n].Data)
	}
}

// foldSpy is the one-rank world with a witness: it keeps what Fold
// returned for the last mode, and the compact rows behind it where that
// mode is split, and checks, at the moment the core has just been formed
// from them, that nothing wrote to them in between.
type foldSpy struct {
	localExchange
	t       *testing.T
	last    int
	y       *dense.Matrix
	compact *dense.KronRows
	copy    []float64
	seen    int
}

// held is the last mode's Y as it stands: its rows, then any compact rows.
func (s *foldSpy) held() []float64 {
	held := slices.Clone(s.y.Data)
	if s.compact != nil {
		held = append(held, s.compact.T.Data...)
	}
	return held
}

func (s *foldSpy) Fold(n int, y *dense.Matrix, rows []int32) (*dense.Matrix, []int32) {
	if n == s.last {
		s.y = y
		s.copy = s.held()
	}
	return y, rows
}

func (s *foldSpy) ReduceCore([]float64) {
	s.seen++
	bitsEqual(s.t, "last mode's Y when the core is formed", s.held(), s.copy)
}

// The last mode's Y outlives its mode: the core is formed from it after
// the loop. In the shared buffer that holds as long as nothing shapes
// or computes another mode's product first — the compact rows of a split
// last mode (nell's under the flat kernel, delicious's under the tree)
// included, which the witness watches in an engine that took its census
// in the one-rank world.
func TestLastModeYIntactAtCoreFormation(t *testing.T) {
	for _, preset := range []string{"nell", "delicious"} {
		x, ranks := presetTensor(t, preset, 0.05)
		opts := Options{Ranks: ranks, MaxIters: 3, Tol: -1, Seed: 2, Threads: 2}
		e := NewEngine(mustPlan(t, x, opts))
		last := x.Order() - 1
		if e.kern.SplitRows(last) == nil {
			t.Fatalf("%s: the last mode takes no split (census %+v)", preset, e.census)
		}
		spy := &foldSpy{localExchange: localExchange{threads: 2}, t: t, last: last, compact: e.kern.SplitRows(last)}
		e.ex = spy
		res, err := e.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if spy.seen != 3 {
			t.Fatalf("%s: core formed %d times in 3 sweeps", preset, spy.seen)
		}
		resultsBitwiseEqual(t, preset+": run under the witness vs plain run", res, mustRun(t, x, opts))
	}

	for _, preset := range []string{"netflix", "flickr"} {
		x, ranks := presetTensor(t, preset, 0.02)
		opts := Options{Ranks: ranks, MaxIters: 3, Tol: -1, Seed: 2, Threads: 2}
		spy := &foldSpy{localExchange: localExchange{threads: 2}, t: t, last: x.Order() - 1}
		if err := opts.Validate(x); err != nil {
			t.Fatal(err)
		}
		res, err := NewEngine(NewRankPlan(x, opts, x.Norm(2), nil, spy)).Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if spy.seen != 3 {
			t.Fatalf("%s: core formed %d times in 3 sweeps", preset, spy.seen)
		}
		plain, err := NewEngine(NewRankPlan(x, opts, x.Norm(2), nil, &localExchange{threads: 2})).Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		resultsBitwiseEqual(t, preset+": run under the witness vs plain run", res, plain)
	}
}

// liveBytes is the heap still reachable after a collection.
func liveBytes() uint64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// What the tree costs in memory is its one largest memo node: the
// update lists it groups the nonzeros by stand in for the flat path's,
// the memo nodes take turns in one buffer, and Y is one buffer either
// way. Measured on the live heap of a finished order-4 engine.
func TestAutoHoldsFlatPlusOneMemoNode(t *testing.T) {
	x, ranks := presetTensor(t, "delicious", 0.1)
	held := func(strategy TTMcStrategy) (uint64, *Engine) {
		base := liveBytes()
		p, err := NewPlan(x, Options{Ranks: ranks, MaxIters: 3, Tol: -1, Seed: 1, Threads: 2, ttmc: strategy})
		if err != nil {
			t.Fatal(err)
		}
		e := NewEngine(p)
		if _, err := e.Run(context.Background()); err != nil {
			t.Fatal(err)
		}
		return liveBytes() - base, e
	}
	held(TTMcAuto) // pools and the worker goroutines are on nobody's bill
	flat, ef := held(TTMcFlat)
	auto, ea := held(TTMcAuto)
	var node uint64
	for _, ni := range ea.kern.Nodes() {
		if width := ni.Hi - ni.Lo; width > 1 && width < x.Order() {
			block := uint64(8)
			for m, r := range ranks {
				if m < ni.Lo || m >= ni.Hi {
					block *= uint64(r)
				}
			}
			node = max(node, uint64(ni.Entries)*block)
		}
	}
	t.Logf("live heap: flat %d B, auto %d B, largest memo node %d B", flat, auto, node)
	if auto > flat+node {
		t.Fatalf("the default order-4 engine holds %d B, flat %d B + largest memo node %d B = %d B", auto, flat, node, flat+node)
	}
	runtime.KeepAlive(ef)
	runtime.KeepAlive(ea)
}
