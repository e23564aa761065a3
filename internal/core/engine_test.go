package core

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"hypertensor/internal/dense"
	"hypertensor/internal/gen"
	"hypertensor/internal/symbolic"
	"hypertensor/internal/tensor"
	"hypertensor/internal/ttm"
)

func presetTensor(t *testing.T, name string, scale float64) (*tensor.COO, []int) {
	t.Helper()
	cfg, err := gen.Preset(name, scale)
	if err != nil {
		t.Fatal(err)
	}
	x := gen.Random(cfg)
	ranks := gen.PaperRanks(x.Order())
	for n := range ranks {
		if ranks[n] > x.Dims[n] {
			ranks[n] = x.Dims[n]
		}
	}
	return x, ranks
}

// TestEngineUpdateMatchesScratch is the acceptance bar of the update
// path: after a ~1% delta on a 3-mode and a 4-mode preset,
// Engine.Update must re-converge to within 1e-8 of a from-scratch solve
// of the merged tensor under both TTMc strategies, while never
// executing more TTMc madds per re-convergence sweep than a
// recompute-everything flat sweep — and strictly fewer on the tree.
func TestEngineUpdateMatchesScratch(t *testing.T) {
	for _, name := range []string{"netflix", "flickr"} {
		x, ranks := presetTensor(t, name, 0.02)
		delta := gen.Delta(x, 0.005, 0.005, 99)
		merged := x.Clone()
		if _, err := merged.Merge(delta); err != nil {
			t.Fatal(err)
		}
		for _, strat := range []TTMcStrategy{TTMcFlat, TTMcDTree} {
			opts := Options{Ranks: ranks, MaxIters: 80, Tol: 1e-10, Seed: 7, ttmc: strat}
			p, err := NewPlan(x, opts)
			if err != nil {
				t.Fatal(err)
			}
			e := NewEngine(p)
			if _, err := e.Run(context.Background()); err != nil {
				t.Fatalf("%s strat=%v run: %v", name, strat, err)
			}
			ru, err := e.Update(delta)
			if err != nil {
				t.Fatalf("%s strat=%v update: %v", name, strat, err)
			}
			rc, err := Decompose(merged, opts)
			if err != nil {
				t.Fatal(err)
			}
			if d := math.Abs(ru.Fit - rc.Fit); d > 1e-8 {
				t.Fatalf("%s strat=%v: incremental fit %v vs scratch %v (|d|=%g)",
					name, strat, ru.Fit, rc.Fit, d)
			}
			if ru.UpdateSweeps <= 0 || ru.UpdateSweeps != ru.Iters {
				t.Fatalf("%s: update sweep accounting broken (%d vs %d)", name, ru.UpdateSweeps, ru.Iters)
			}
			if ru.UpdateMadds <= 0 || ru.FullSweepMadds <= 0 {
				t.Fatalf("%s: update madds accounting missing (%d, %d)", name, ru.UpdateMadds, ru.FullSweepMadds)
			}
			perSweep := ru.UpdateMadds / int64(ru.UpdateSweeps)
			if perSweep > ru.FullSweepMadds {
				t.Fatalf("%s strat=%v: update executed %d madds/sweep, full sweep is %d",
					name, strat, perSweep, ru.FullSweepMadds)
			}
			if strat == TTMcDTree && perSweep >= ru.FullSweepMadds {
				t.Fatalf("%s: the tree's update should beat the full sweep (%d vs %d)",
					name, perSweep, ru.FullSweepMadds)
			}
			if ru.DeltaNNZ <= 0 {
				t.Fatalf("%s: DeltaNNZ not recorded", name)
			}
		}
	}
}

// TestEngineUpdateScale02 pins the issue's acceptance criterion at the
// benchmark scale: after a ~1% delta on the scale-0.2 netflix preset,
// Engine.Update re-converges to within 1e-8 of the from-scratch fit in
// fewer sweeps, executing measurably fewer TTMc madds per sweep than a
// recompute-everything flat sweep.
func TestEngineUpdateScale02(t *testing.T) {
	if testing.Short() {
		t.Skip("scale-0.2 acceptance run skipped in -short mode")
	}
	x, ranks := presetTensor(t, "netflix", 0.2)
	delta := gen.Delta(x, 0.005, 0.005, 99)
	merged := x.Clone()
	if _, err := merged.Merge(delta); err != nil {
		t.Fatal(err)
	}
	opts := Options{Ranks: ranks, MaxIters: 100, Tol: 1e-10, Seed: 7, ttmc: TTMcDTree}
	p, err := NewPlan(x, opts)
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(p)
	if _, err := e.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	ru, err := e.Update(delta)
	if err != nil {
		t.Fatal(err)
	}
	rc, err := Decompose(merged, opts)
	if err != nil {
		t.Fatal(err)
	}
	if d := math.Abs(ru.Fit - rc.Fit); d > 1e-8 {
		t.Fatalf("scale-0.2 incremental fit %v vs scratch %v (|d|=%g)", ru.Fit, rc.Fit, d)
	}
	if ru.UpdateSweeps >= rc.Iters {
		t.Fatalf("warm re-convergence took %d sweeps, cold solve %d", ru.UpdateSweeps, rc.Iters)
	}
	perSweep := ru.UpdateMadds / int64(ru.UpdateSweeps)
	if perSweep >= ru.FullSweepMadds {
		t.Fatalf("update executed %d madds/sweep, full flat sweep is %d", perSweep, ru.FullSweepMadds)
	}
}

// TestEngineUpdateDeterminism pins the bitwise thread-invariance
// contract of the update path: the re-convergence fit trajectory must
// be identical for every thread count, under both TTMc strategies.
func TestEngineUpdateDeterminism(t *testing.T) {
	x, ranks := presetTensor(t, "flickr", 0.02)
	delta := gen.Delta(x, 0.01, 0.01, 5)
	for _, strat := range []TTMcStrategy{TTMcFlat, TTMcDTree} {
		var ref []float64
		for _, threads := range []int{1, 2, 4, 8} {
			opts := Options{Ranks: ranks, MaxIters: 6, Tol: -1, Seed: 3, ttmc: strat, Threads: threads}
			p, err := NewPlan(x, opts)
			if err != nil {
				t.Fatal(err)
			}
			e := NewEngine(p)
			if _, err := e.Run(context.Background()); err != nil {
				t.Fatal(err)
			}
			ru, err := e.Update(delta)
			if err != nil {
				t.Fatal(err)
			}
			if ref == nil {
				ref = ru.FitHistory
				continue
			}
			if len(ru.FitHistory) != len(ref) {
				t.Fatalf("strat=%v threads=%d: %d sweeps vs %d", strat, threads, len(ru.FitHistory), len(ref))
			}
			for i := range ref {
				if ru.FitHistory[i] != ref[i] {
					t.Fatalf("strat=%v threads=%d: update fit trajectory diverged at sweep %d (%v vs %v)",
						strat, threads, i, ru.FitHistory[i], ref[i])
				}
			}
		}
	}
}

// TestEnginePlanReuse checks the Plan/Engine ownership contract: two
// engines on one plan produce identical results, and updates through
// one engine leave both the plan's tensor and the sibling engine
// untouched.
func TestEnginePlanReuse(t *testing.T) {
	x, ranks := presetTensor(t, "netflix", 0.01)
	nnz0 := x.NNZ()
	val0 := x.Val[0]
	opts := Options{Ranks: ranks, MaxIters: 3, Tol: -1, Seed: 11, ttmc: TTMcDTree}
	p, err := NewPlan(x, opts)
	if err != nil {
		t.Fatal(err)
	}
	a, b := NewEngine(p), NewEngine(p)
	ra, err := a.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	delta := gen.Delta(x, 0.01, 0.01, 2)
	if _, err := a.Update(delta); err != nil {
		t.Fatal(err)
	}
	if x.NNZ() != nnz0 || x.Val[0] != val0 {
		t.Fatalf("engine update mutated the caller's tensor (nnz %d -> %d)", nnz0, x.NNZ())
	}
	rb, err := b.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(ra.FitHistory) != len(rb.FitHistory) {
		t.Fatalf("sibling engines diverged: %d vs %d sweeps", len(ra.FitHistory), len(rb.FitHistory))
	}
	for i := range ra.FitHistory {
		if ra.FitHistory[i] != rb.FitHistory[i] {
			t.Fatalf("sibling engines diverged at sweep %d", i)
		}
	}
}

// TestEnginesShareAPlan holds the plan's read-only contract under
// concurrency: two engines built and run at once on one order-3 plan,
// each flat kernel gathering its index streams, partitioning its chains
// and taking its census on its own copies of the plan's mode headers.
// Their fits, factors and stream bytes are a lone engine's, bitwise, and
// the plan's structure is still a fresh symbolic.Build's afterwards: no
// engine cached anything on it. Under -race it shows that the two
// engines write no shared state.
func TestEnginesShareAPlan(t *testing.T) {
	x, ranks := presetTensor(t, "netflix", 0.02)
	opts := Options{Ranks: ranks, MaxIters: 3, Tol: -1, Seed: 5, Threads: 2, ttmc: TTMcFlat}
	lone, err := NewEngine(mustPlan(t, x, opts)).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if lone.StreamBytes == 0 {
		t.Fatal("the lone engine's kernel copied no stream; the test would not see one shared")
	}
	p := mustPlan(t, x, opts)
	var results [2]*Result
	var errs [2]error
	var wg sync.WaitGroup
	for i := range results {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i], errs[i] = NewEngine(p).Run(context.Background())
		}()
	}
	wg.Wait()
	for i, res := range results {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		label := fmt.Sprintf("engine %d of 2", i)
		resultsBitwiseEqual(t, label, lone, res)
		if res.StreamBytes != lone.StreamBytes {
			t.Errorf("%s: %d stream bytes, a lone engine's %d", label, res.StreamBytes, lone.StreamBytes)
		}
	}
	if !reflect.DeepEqual(p.sym, symbolic.Build(x, opts.Threads)) {
		t.Error("the plan's symbolic structure is not a fresh Build's after two engines ran on it")
	}
}

// TestEngineSequentialUpdates streams several deltas through one handle
// and checks the terminal state still matches a cold solve of the fully
// merged tensor.
func TestEngineSequentialUpdates(t *testing.T) {
	x, ranks := presetTensor(t, "flickr", 0.01)
	opts := Options{Ranks: ranks, MaxIters: 80, Tol: 1e-10, Seed: 13, ttmc: TTMcDTree}
	p, err := NewPlan(x, opts)
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(p)
	if _, err := e.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	merged := x.Clone()
	var last *Result
	for step := 0; step < 3; step++ {
		delta := gen.Delta(merged, 0.004, 0.004, int64(100+step))
		if _, err := merged.Merge(delta); err != nil {
			t.Fatal(err)
		}
		last, err = e.Update(delta)
		if err != nil {
			t.Fatalf("update %d: %v", step, err)
		}
	}
	rc, err := Decompose(merged, opts)
	if err != nil {
		t.Fatal(err)
	}
	if d := math.Abs(last.Fit - rc.Fit); d > 1e-8 {
		t.Fatalf("after 3 streamed deltas fit %v vs scratch %v (|d|=%g)", last.Fit, rc.Fit, d)
	}
	// The engine's merged tensor must equal the reference merge.
	et := e.Tensor().Clone().SortDedup()
	mt := merged.Clone().SortDedup()
	if et.NNZ() != mt.NNZ() {
		t.Fatalf("engine tensor has %d nonzeros, reference %d", et.NNZ(), mt.NNZ())
	}
}

// TestEngineUpdateErrors checks that invalid deltas are rejected before
// any state mutation and the handle stays usable.
func TestEngineUpdateErrors(t *testing.T) {
	x, ranks := presetTensor(t, "netflix", 0.01)
	opts := Options{Ranks: ranks, MaxIters: 2, Tol: -1, Seed: 1}
	p, err := NewPlan(x, opts)
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(p)
	if _, err := e.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	fitBefore := e.Result().Fit
	if _, err := e.Update(tensor.NewCOO([]int{3, 3}, 0)); err == nil {
		t.Fatal("order-mismatched delta accepted")
	}
	bad := tensor.NewCOO(x.Dims, 1)
	bad.Idx[0] = append(bad.Idx[0], int32(x.Dims[0])) // out of range
	for m := 1; m < x.Order(); m++ {
		bad.Idx[m] = append(bad.Idx[m], 0)
	}
	bad.Val = append(bad.Val, 1)
	if _, err := e.Update(bad); err == nil {
		t.Fatal("out-of-range delta accepted")
	}
	// Empty delta: a no-op merge followed by a (warm, quick) re-converge.
	r, err := e.Update(tensor.NewCOO(x.Dims, 0))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r.Fit-fitBefore) > 1e-6 {
		t.Fatalf("empty delta moved the fit from %v to %v", fitBefore, r.Fit)
	}
	if r.DeltaNNZ != 0 {
		t.Fatalf("empty delta reported %d ingested nonzeros", r.DeltaNNZ)
	}
}

// TestEngineRunCancellation: a canceled context aborts between sweeps.
func TestEngineRunCancellation(t *testing.T) {
	x, ranks := presetTensor(t, "netflix", 0.01)
	p, err := NewPlan(x, Options{Ranks: ranks, MaxIters: 50, Tol: -1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := NewEngine(p).Run(ctx); err == nil {
		t.Fatal("canceled context did not abort the run")
	}
}

// The update path's numbers, recorded from the commit before Update
// rebuilt the tree in place of splicing the delta into its groupings:
// three deltas streamed into the order-4 default engine. The sweep and
// multiply-add counts are exact; fits and the factor digest
// sum U[i,j]*cos(0.7i+1.3j+n) hold to rounding. Fits and digests were
// taken again when the default moved this shape from Lanczos to Gram
// (the digest follows the sign each solver gives a singular vector), and
// the madds and digests when the tree took the singleton census on
// order 4 (its compact rows count c, and the split Gram sums G in
// another order; the fits hold), and the digests again when the start
// became the counter-based fill (the fits hold).
func TestUpdatePathUnchanged(t *testing.T) {
	x, ranks := presetTensor(t, "delicious", 0.1)
	plan, err := NewPlan(x, Options{Ranks: ranks, MaxIters: 20, Seed: 1, Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(plan)
	if _, err := eng.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	for k, want := range []struct {
		sweeps int
		madds  int64
		fits   []float64
		digest float64
	}{
		{2, 7140100, []float64{0.98198372184541682, 0.98198373155099139}, 0.47824405683712828},
		{2, 7197100, []float64{0.98196895006284268, 0.98196895033360998}, 2.3335193339845892},
		{2, 7256700, []float64{0.98195570281131972, 0.98195570282722755}, 3.2992147774272156},
	} {
		res, err := eng.Update(gen.Delta(eng.Tensor(), 0.003, 0.003, int64(100+k)))
		if err != nil {
			t.Fatal(err)
		}
		if res.UpdateSweeps != want.sweeps || res.UpdateMadds != want.madds {
			t.Fatalf("update %d: %d sweeps and %d madds, recorded %d and %d", k, res.UpdateSweeps, res.UpdateMadds, want.sweeps, want.madds)
		}
		for i, fit := range want.fits {
			if d := math.Abs(res.FitHistory[i] - fit); !(d <= 1e-9) {
				t.Fatalf("update %d sweep %d: fit %.17g is %.3g off the recorded %.17g", k, i+1, res.FitHistory[i], d, fit)
			}
		}
		var digest float64
		for n, u := range res.Factors {
			for i := 0; i < u.Rows; i++ {
				for j := 0; j < u.Cols; j++ {
					digest += u.At(i, j) * math.Cos(0.7*float64(i)+1.3*float64(j)+float64(n))
				}
			}
		}
		if d := math.Abs(digest - want.digest); !(d <= 1e-9) {
			t.Fatalf("update %d: factor digest %.17g is %.3g off the recorded %.17g", k, digest, d, want.digest)
		}
	}
}

// Every Update builds a tree; the engine must end up holding one, not
// one per update. Between the first and the eighth update its live heap
// grows with the tensor (new nonzeros open new slices, and every Y row
// and memo entry has its price) — by well under what one resident tree
// holds, where keeping the old trees would cost seven.
func TestEngineHoldsOneTreeAcrossUpdates(t *testing.T) {
	x, ranks := presetTensor(t, "delicious", 0.1)
	base := liveBytes()
	plan, err := NewPlan(x, Options{Ranks: ranks, MaxIters: 2, Tol: -1, Seed: 1, Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(plan)
	if _, err := eng.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	var first, last uint64
	for k := 0; k < 8; k++ {
		if _, err := eng.Update(gen.Delta(eng.Tensor(), 0.003, 0.003, int64(100+k))); err != nil {
			t.Fatal(err)
		}
		if last = liveBytes() - base; k == 0 {
			first = last
		}
	}
	if _, ok := eng.kern.(*ttm.DTree); !ok {
		t.Fatalf("the order-4 default engine runs %T", eng.kern)
	}
	eng.kern = nil
	tree := last - (liveBytes() - base)
	t.Logf("live heap after update 1: %d B, after update 8: %d B; the resident tree: %d B", first, last, tree)
	if last-first > tree {
		t.Fatalf("the engine grew from %d B to %d B over seven updates; one resident tree is %d B", first, last, tree)
	}
	runtime.KeepAlive(eng)
}

// emptyRowsAreZero fails unless every row of every factor whose slice
// holds no nonzero is exactly zero, and reports how many such rows it saw.
func emptyRowsAreZero(t *testing.T, label string, e *Engine) (empty int) {
	t.Helper()
	for n, u := range e.Factors() {
		solved := make(map[int32]bool)
		for _, row := range e.kern.Rows(n) {
			solved[row] = true
		}
		for i := 0; i < u.Rows; i++ {
			if solved[int32(i)] {
				continue
			}
			empty++
			for j, v := range u.Row(i) {
				if math.Float64bits(v) != 0 {
					t.Fatalf("%s: mode %d row %d holds no nonzero, yet U(%d,%d) = %v", label, n, i, i, j, v)
				}
			}
		}
	}
	return empty
}

// The scatter zeroes a factor matrix the first time the engine writes
// into it and only copies the solved rows afterwards. A warm start whose
// Initial factors are nonzero in the rows of empty slices must still end
// with those rows zero; an Update that fills some of those slices must
// write their rows, keep the rest zero, and equal the cold rebuild (whose
// factors are fresh clones, zeroed again) bit for bit. The same holds on
// a cold random start, whose U_0 the engine starts as a zero matrix that
// the first scatter does not clear again.
func TestScatterZeroesOncePerFactorMatrix(t *testing.T) {
	x := gen.Random(gen.Config{Dims: []int{60, 50, 40}, NNZ: 90, Skew: 0.5, Seed: 5})
	ranks := []int{3, 3, 3}
	for _, strat := range []TTMcStrategy{TTMcFlat, TTMcDTree} {
		for _, warm := range []bool{true, false} {
			label := fmt.Sprintf("%v warm=%v", strat, warm)
			opts := Options{Ranks: ranks, MaxIters: 3, Tol: -1, Seed: 2, ttmc: strat}
			if warm {
				opts.Initial = InitialFactors(x.Dims, ranks, opts.Seed, opts.Threads) // dense random columns: no zero row
			}
			p, err := NewPlan(x, opts)
			if err != nil {
				t.Fatal(err)
			}
			e := NewEngine(p)
			if preset := e.scattered[0] == e.Factors()[0]; preset == warm {
				t.Fatalf("%s: U_0 counts as zeroed before the first sweep: %v", label, preset)
			}
			if _, err := e.Run(context.Background()); err != nil {
				t.Fatal(err)
			}
			before := emptyRowsAreZero(t, label+": after the run", e)
			if before == 0 {
				t.Fatal("the tensor has no empty slice: the test needs some")
			}
			// One new nonzero per mode, in that mode's first empty slice and
			// in a nonempty slice of every other mode (so its Y row is not
			// a product with a zeroed factor row).
			filled := make([]int, x.Order())
			delta := tensor.NewCOO(x.Dims, x.Order())
			for n := range filled {
				coord := make([]int, x.Order())
				for m := range coord {
					coord[m] = int(e.kern.Rows(m)[0])
				}
				solved := e.kern.Rows(n)
				for filled[n] < len(solved) && int(solved[filled[n]]) == filled[n] {
					filled[n]++
				}
				coord[n] = filled[n]
				delta.Append(coord, 1.5)
			}
			updateVsColdRebuild(t, e, x, delta, opts)
			if after := emptyRowsAreZero(t, label+": after the update", e); after != before-x.Order() {
				t.Fatalf("%s: %d empty rows before the update, %d after: %d slices should have filled", label, before, after, x.Order())
			}
			for n, u := range e.Factors() {
				if dense.Nrm2(u.Row(filled[n])) == 0 {
					t.Fatalf("%s: mode %d: slice %d became nonempty and its factor row is still zero", label, n, filled[n])
				}
			}
		}
	}
}
