package core

import (
	"context"
	"slices"
	"testing"

	"hypertensor/internal/gen"
	"hypertensor/internal/symbolic"
	"hypertensor/internal/tensor"
	"hypertensor/internal/ttm"
)

// singletons counts each mode's one-nonzero slices.
func singletons(x *tensor.COO) []int {
	sym := symbolic.Build(x, 1)
	counts := make([]int, x.Order())
	for n := range sym.Modes {
		for r := range sym.Modes[n].Rows {
			if len(sym.Modes[n].RowNZ(r)) == 1 {
				counts[n]++
			}
		}
	}
	return counts
}

// The singleton census runs in the Gram-solved modes of a shared-memory
// plan at fixed ranks, at every order and on either kernel, and an
// Update takes it again on the merged tensor (on order 4, on the tree it
// rebuilds); every other plan — Eps, a Lanczos mode, a rank plan — keeps
// its row order and takes none.
func TestCensusOnSharedGram(t *testing.T) {
	x, ranks := presetTensor(t, "netflix", 0.2)
	opts := Options{Ranks: ranks, MaxIters: 2, Tol: -1, Seed: 5, Threads: 2}
	e := NewEngine(mustPlan(t, x, opts))
	res, err := e.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	want := singletons(x)
	if len(res.Census) != 3 || !res.Census[0].Taken() {
		t.Fatalf("netflix: census %+v, want mode 0 to take the split", res.Census)
	}
	for n, c := range res.Census {
		if c.Singletons != want[n] {
			t.Errorf("netflix mode %d: census counts %d singletons, the lists %d", n, c.Singletons, want[n])
		}
	}
	delta := gen.Delta(x, 0.01, 0.01, 9)
	res, err = e.Update(delta)
	if err != nil {
		t.Fatal(err)
	}
	merged := x.Clone()
	if _, err := merged.Merge(delta); err != nil {
		t.Fatal(err)
	}
	want = singletons(merged)
	for n, c := range res.Census {
		if c.Singletons != want[n] {
			t.Errorf("netflix after Update, mode %d: census counts %d singletons, the merged lists %d", n, c.Singletons, want[n])
		}
	}

	lan := opts
	lan.svd = SVDLanczos
	for n, c := range mustRun(t, x, lan).Census {
		if c.Group != -1 || c.Plain != 0 {
			t.Errorf("netflix under Lanczos, mode %d: census %+v", n, c)
		}
	}
	eps := opts
	eps.Eps = 0.5
	if c := mustRun(t, x, eps).Census; c != nil {
		t.Errorf("netflix under Eps: census %+v", c)
	}
	if err := opts.Validate(x); err != nil {
		t.Fatal(err)
	}
	rank, err := NewEngine(NewRankPlan(x, opts, x.Norm(2), nil, &localExchange{threads: 2})).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rank.Census != nil {
		t.Errorf("netflix on a rank plan: census %+v", rank.Census)
	}

	// Order 4: the tree takes the flat kernel's census, and so does an
	// Update on the tree it rebuilds.
	x4, ranks4 := presetTensor(t, "delicious", 0.05)
	o := Options{Ranks: ranks4, MaxIters: 1, Tol: -1, Seed: 5, Threads: 2, ttmc: TTMcFlat}
	flat := mustRun(t, x4, o).Census
	o.ttmc = TTMcAuto
	e4 := NewEngine(mustPlan(t, x4, o))
	if _, ok := e4.kern.(*ttm.DTree); !ok {
		t.Fatalf("delicious: the default engine runs %T", e4.kern)
	}
	res, err = e4.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(res.Census, flat) || len(flat) != 4 {
		t.Fatalf("delicious: the tree's census %+v, the flat kernel's %+v", res.Census, flat)
	}
	want = singletons(x4)
	taken := 0
	for n, c := range res.Census {
		if c.Singletons != want[n] {
			t.Errorf("delicious mode %d: census counts %d singletons, the lists %d", n, c.Singletons, want[n])
		}
		if c.Taken() {
			taken++
		}
	}
	if taken == 0 {
		t.Fatalf("delicious: census %+v, want a mode to take the split", res.Census)
	}
	delta = gen.Delta(x4, 0.01, 0.01, 9)
	res, err = e4.Update(delta)
	if err != nil {
		t.Fatal(err)
	}
	merged = x4.Clone()
	if _, err := merged.Merge(delta); err != nil {
		t.Fatal(err)
	}
	want = singletons(merged)
	for n, c := range res.Census {
		if c.Singletons != want[n] {
			t.Errorf("delicious after Update, mode %d: census counts %d singletons, the merged lists %d", n, c.Singletons, want[n])
		}
		if (e4.kern.SplitRows(n) != nil) != c.Taken() {
			t.Errorf("delicious after Update, mode %d: census %+v, the rebuilt tree's rows split %v", n, c, e4.kern.SplitRows(n) != nil)
		}
	}
}

// A split mode's singleton rows take c = C/R_g doubles in the shared Y
// buffer: it holds exactly max_n (multi·C + singles·c) doubles, what the
// storage line reports as y, against max_n rows·C without the census.
func TestSplitYBufferIsCompact(t *testing.T) {
	x, ranks := presetTensor(t, "nell", 0.2)
	opts := Options{Ranks: ranks, MaxIters: 2, Tol: -1, Seed: 5, Threads: 2}
	e := NewEngine(mustPlan(t, x, opts))
	res, err := e.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	compact, wide := 0, 0
	for n, c := range res.Census {
		cols, rows := ttm.RowSize(res.Factors, n), len(e.kern.Rows(n))
		need := rows * cols
		if c.Taken() {
			need -= c.Singletons * (cols - cols/ranks[c.Group])
		}
		compact, wide = max(compact, need), max(wide, rows*cols)
	}
	if cap(e.ybuf) != compact || res.YBytes != 8*int64(compact) {
		t.Fatalf("nell: Y buffer holds %d doubles (YBytes %d), want max (multi·C + singles·c) = %d", cap(e.ybuf), res.YBytes, compact)
	}
	lan := opts
	lan.svd = SVDLanczos
	if got := mustRun(t, x, lan).YBytes; got != 8*int64(wide) || compact >= wide {
		t.Fatalf("nell: %d Y bytes without the census, want max rows·C = %d; %d with it", got, 8*wide, 8*compact)
	}
	t.Logf("nell: Y buffer %d B split, %d B C wide", 8*compact, 8*wide)
}
