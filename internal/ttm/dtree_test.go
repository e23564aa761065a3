package ttm

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"hypertensor/internal/dense"
	"hypertensor/internal/gen"
	"hypertensor/internal/symbolic"
	"hypertensor/internal/tensor"
)

// sparseSetup builds a random tensor that leaves some slices empty in
// every mode (indices are drawn from a strided subset), so compaction
// paths are exercised.
func sparseSetup(rng *rand.Rand, dims, ranks []int, nnz int) (*tensor.COO, []*dense.Matrix, *symbolic.Structure) {
	x := tensor.NewCOO(dims, nnz)
	coord := make([]int, len(dims))
	for i := 0; i < nnz; i++ {
		for m := range coord {
			// Stride 2 keeps every odd index empty; a few extra random
			// indices keep the pattern irregular.
			if rng.Intn(4) == 0 {
				coord[m] = rng.Intn(dims[m])
			} else {
				coord[m] = 2 * rng.Intn((dims[m]+1)/2)
			}
		}
		x.Append(coord, rng.NormFloat64())
	}
	x.SortDedup()
	u := make([]*dense.Matrix, len(dims))
	for m := range u {
		u[m] = randomNormal(dims[m], ranks[m], rng)
	}
	return x, u, symbolic.Build(x, 1)
}

func maxAbs(m *dense.Matrix) float64 {
	var mx float64
	for _, v := range m.Data {
		if a := math.Abs(v); a > mx {
			mx = a
		}
	}
	return mx
}

// relErr returns max |a-b| / max(1, max|b|): a relative error measure
// robust to near-zero references.
func relErr(a, b *dense.Matrix) float64 {
	scale := maxAbs(b)
	if scale < 1 {
		scale = 1
	}
	var mx float64
	for i := range a.Data {
		if d := math.Abs(a.Data[i] - b.Data[i]); d > mx {
			mx = d
		}
	}
	return mx / scale
}

// The headline equivalence: the flat row-parallel TTMc, the MET-style
// TTM chain, and the dimension-tree path agree on every mode of random
// 3- and 4-mode tensors, including tensors with empty slices.
func TestDTreeMatchesFlatAndChain(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	cases := []struct {
		dims, ranks []int
		nnz         int
	}{
		{[]int{12, 9, 14}, []int{3, 2, 4}, 150},
		{[]int{8, 11, 6, 9}, []int{2, 3, 2, 2}, 120},
		{[]int{30, 4, 25}, []int{5, 3, 4}, 60}, // very sparse: many empty slices
	}
	for _, tc := range cases {
		x, u, sym := sparseSetup(rng, tc.dims, tc.ranks, tc.nnz)
		tree := NewDTree(x)
		for mode := 0; mode < x.Order(); mode++ {
			sm := &sym.Modes[mode]
			if tree.NumRows(mode) != sm.NumRows() {
				t.Fatalf("dims=%v mode %d: tree has %d rows, symbolic %d",
					tc.dims, mode, tree.NumRows(mode), sm.NumRows())
			}
			for r, row := range tree.Rows(mode) {
				if row != sm.Rows[r] {
					t.Fatalf("dims=%v mode %d: row order differs at %d", tc.dims, mode, r)
				}
			}
			k := RowSize(u, mode)
			flat := dense.NewMatrix(sm.NumRows(), k)
			TTMc(flat, x, sm, u, 2)
			got := dense.NewMatrix(sm.NumRows(), k)
			tree.TTMc(got, mode, u, 2)
			if e := relErr(got, flat); e > 1e-8 {
				t.Fatalf("dims=%v mode %d: dtree vs flat rel err %v", tc.dims, mode, e)
			}
			chainRows, chain := ChainTTMc(x, mode, u)
			if len(chainRows) != sm.NumRows() {
				t.Fatalf("dims=%v mode %d: chain row count %d", tc.dims, mode, len(chainRows))
			}
			if e := relErr(got, chain); e > 1e-8 {
				t.Fatalf("dims=%v mode %d: dtree vs chain rel err %v", tc.dims, mode, e)
			}
		}
	}
}

// The tree path must stay bitwise deterministic for any thread count,
// like the flat kernel.
func TestDTreeDeterministicAcrossThreads(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	x, u, _ := sparseSetup(rng, []int{20, 15, 12, 8}, []int{3, 2, 2, 3}, 300)
	run := func(threads int) []*dense.Matrix {
		tree := NewDTree(x)
		out := make([]*dense.Matrix, x.Order())
		for n := 0; n < x.Order(); n++ {
			out[n] = dense.NewMatrix(tree.NumRows(n), RowSize(u, n))
			tree.TTMc(out[n], n, u, threads)
		}
		return out
	}
	a, b := run(1), run(5)
	for n := range a {
		for i := range a[n].Data {
			if a[n].Data[i] != b[n].Data[i] {
				t.Fatalf("mode %d: thread count changed bits at %d", n, i)
			}
		}
	}
}

// sweep emulates one HOOI sweep's use of the tree: TTMc for each mode
// in order, "updating" (perturbing) the mode's factor and invalidating
// it before moving on.
func sweep(t *testing.T, tree *DTree, x *tensor.COO, sym *symbolic.Structure, u []*dense.Matrix, rng *rand.Rand) {
	t.Helper()
	for n := 0; n < x.Order(); n++ {
		sm := &sym.Modes[n]
		k := RowSize(u, n)
		got := dense.NewMatrix(sm.NumRows(), k)
		tree.TTMc(got, n, u, 3)
		flat := dense.NewMatrix(sm.NumRows(), k)
		TTMc(flat, x, sm, u, 1)
		if e := relErr(got, flat); e > 1e-8 {
			t.Fatalf("sweep mode %d: rel err %v", n, e)
		}
		u[n] = randomNormal(u[n].Rows, u[n].Cols, rng)
		tree.Invalidate(n)
	}
}

// Interleaving factor updates with TTMc calls — the HOOI access
// pattern — must keep the tree consistent with flat recomputation.
func TestDTreeSweepConsistency(t *testing.T) {
	rng := rand.New(rand.NewSource(63))
	for _, dims := range [][]int{{15, 10, 12}, {9, 8, 10, 7}} {
		ranks := make([]int, len(dims))
		for i := range ranks {
			ranks[i] = 2 + i%2
		}
		x, u, sym := sparseSetup(rng, dims, ranks, 200)
		tree := NewDTree(x)
		for s := 0; s < 3; s++ {
			sweep(t, tree, x, sym, u, rng)
		}
	}
}

// nodeByRange finds a node's info by mode range.
func nodeByRange(infos []NodeInfo, lo, hi int) *NodeInfo {
	for i := range infos {
		if infos[i].Lo == lo && infos[i].Hi == hi {
			return &infos[i]
		}
	}
	return nil
}

// Invalidation must recompute exactly the dirty subtree: for a 4-mode
// tensor (tree {0,1,2,3} -> {0,1},{2,3} -> leaves), updating factor 0
// dirties {2,3} but not {0,1}, so a sweep's second mode-0/1 visit
// reuses {0,1} while the mode-2/3 visits rebuild {2,3} once.
func TestDTreeInvalidationRecomputesExactlyDirtySubtree(t *testing.T) {
	rng := rand.New(rand.NewSource(64))
	x, u, _ := sparseSetup(rng, []int{10, 9, 8, 7}, []int{2, 2, 2, 2}, 150)
	tree := NewDTree(x)
	y := func(n int) *dense.Matrix { return dense.NewMatrix(tree.NumRows(n), RowSize(u, n)) }

	computes := func(lo, hi int) int {
		ni := nodeByRange(tree.Nodes(), lo, hi)
		if ni == nil {
			t.Fatalf("no node [%d,%d)", lo, hi)
		}
		return ni.Computes
	}

	// Mode 0: computes internal node {0,1} (leaf emission is uncached).
	tree.TTMc(y(0), 0, u, 1)
	if c := computes(0, 2); c != 1 {
		t.Fatalf("node {0,1} computed %d times after first TTMc, want 1", c)
	}
	if c := computes(2, 4); c != 0 {
		t.Fatalf("node {2,3} computed %d times before any mode-2/3 TTMc, want 0", c)
	}

	// Updating U_0 must NOT dirty {0,1} (it excludes U_0 from its
	// contraction): mode 1 reuses it.
	u[0] = randomNormal(u[0].Rows, u[0].Cols, rng)
	tree.Invalidate(0)
	tree.TTMc(y(1), 1, u, 1)
	if c := computes(0, 2); c != 1 {
		t.Fatalf("node {0,1} recomputed after mode-0 update (computes=%d), memoization broken", c)
	}

	// Modes 2 and 3 share one build of {2,3}.
	u[1] = randomNormal(u[1].Rows, u[1].Cols, rng)
	tree.Invalidate(1)
	tree.TTMc(y(2), 2, u, 1)
	u[2] = randomNormal(u[2].Rows, u[2].Cols, rng)
	tree.Invalidate(2)
	tree.TTMc(y(3), 3, u, 1)
	if c := computes(2, 4); c != 1 {
		t.Fatalf("node {2,3} computed %d times across the mode-2/3 visits, want 1", c)
	}

	// Second sweep: mode 0 must rebuild {0,1} exactly once (factors 2
	// and 3 changed... factor 3 did not, but factor 2 did).
	tree.TTMc(y(0), 0, u, 1)
	if c := computes(0, 2); c != 2 {
		t.Fatalf("node {0,1} computed %d times at second sweep, want 2", c)
	}
	// And {2,3} stays untouched by mode-0/1 work.
	tree.TTMc(y(1), 1, u, 1)
	if c := computes(2, 4); c != 1 {
		t.Fatalf("node {2,3} recomputed by mode-0/1 work (computes=%d)", c)
	}
}

// Changing the factor ranks between calls must drop every cache and
// still produce correct results.
func TestDTreeRankChangeInvalidates(t *testing.T) {
	rng := rand.New(rand.NewSource(65))
	x, u, sym := sparseSetup(rng, []int{12, 10, 8}, []int{3, 3, 3}, 150)
	tree := NewDTree(x)
	tree.TTMc(dense.NewMatrix(tree.NumRows(0), RowSize(u, 0)), 0, u, 1)

	u2 := make([]*dense.Matrix, len(u))
	for m := range u2 {
		u2[m] = randomNormal(x.Dims[m], 2, rng)
	}
	for mode := 0; mode < x.Order(); mode++ {
		sm := &sym.Modes[mode]
		got := dense.NewMatrix(tree.NumRows(mode), RowSize(u2, mode))
		tree.TTMc(got, mode, u2, 2)
		flat := dense.NewMatrix(sm.NumRows(), RowSize(u2, mode))
		TTMc(flat, x, sm, u2, 1)
		if e := relErr(got, flat); e > 1e-8 {
			t.Fatalf("after rank change, mode %d rel err %v", mode, e)
		}
	}
}

// The tree must also handle the order-2 edge case (leaves hang directly
// off the root) and duplicate-free grouping.
func TestDTreeOrder2(t *testing.T) {
	rng := rand.New(rand.NewSource(66))
	x, u, sym := sparseSetup(rng, []int{9, 7}, []int{3, 2}, 30)
	tree := NewDTree(x)
	for mode := 0; mode < 2; mode++ {
		sm := &sym.Modes[mode]
		got := dense.NewMatrix(tree.NumRows(mode), RowSize(u, mode))
		tree.TTMc(got, mode, u, 1)
		flat := dense.NewMatrix(sm.NumRows(), RowSize(u, mode))
		TTMc(flat, x, sm, u, 1)
		if e := relErr(got, flat); e > 1e-8 {
			t.Fatalf("order-2 mode %d rel err %v", mode, e)
		}
	}
}

// The whole point: fewer TTMc flops per sweep than the flat path on a
// 4-mode tensor (the dense-pair merging the tree exploits).
func TestDTreeSweepUsesFewerFlops(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	dims := []int{40, 35, 45, 30}
	ranks := []int{4, 4, 4, 4}
	x, u, _ := sparseSetup(rng, dims, ranks, 4000)
	tree := NewDTree(x)
	tree.ResetFlops()
	for n := 0; n < x.Order(); n++ {
		y := dense.NewMatrix(tree.NumRows(n), RowSize(u, n))
		tree.TTMc(y, n, u, 2)
		tree.Invalidate(n)
	}
	treeFlops := tree.Flops()
	flatFlops := SweepFlops(x.NNZ(), u)
	if treeFlops >= flatFlops {
		t.Fatalf("dimension tree used %d flops, flat sweep %d — no saving", treeFlops, flatFlops)
	}
	t.Logf("sweep flops: dtree %d vs flat %d (%.2fx)", treeFlops, flatFlops, float64(flatFlops)/float64(treeFlops))
}

// BenchmarkDTreeTTMc times a steady-state order-4 tree sweep — each mode
// invalidated, then its TTMc — at ranks 5 on one thread and two, in ns
// per nonzero of the sweep: the shape of the benchmark's delicious4
// workload at half its nonzeros. Every memo node and both root children
// are rebuilt each sweep, as under HOOI.
func BenchmarkDTreeTTMc(b *testing.B) {
	x := gen.Random(gen.Config{Dims: []int{1400, 20000, 400000, 60000}, NNZ: 200_000, Skew: 0.5, Seed: 1})
	rng := rand.New(rand.NewSource(2))
	u := make([]*dense.Matrix, x.Order())
	for m := range u {
		u[m] = randomNormal(x.Dims[m], 5, rng)
	}
	for _, threads := range []int{1, 2} {
		b.Run(fmt.Sprintf("T%d", threads), func(b *testing.B) {
			tree := BuildDTree(x, threads)
			ys := make([]*dense.Matrix, len(u))
			for n := range u {
				ys[n] = dense.NewMatrix(tree.NumRows(n), RowSize(u, n))
			}
			sweep := func() {
				for n := range u {
					tree.Invalidate(n)
					tree.TTMc(ys[n], n, u, threads)
				}
			}
			sweep() // sizes the value buffers and the scratch
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sweep()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(x.NNZ()), "ns/nnz")
		})
	}
}
