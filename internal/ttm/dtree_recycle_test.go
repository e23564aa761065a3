package ttm

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"hypertensor/internal/dense"
	"hypertensor/internal/symbolic"
	"hypertensor/internal/tensor"
)

// engineSweep drives the tree the way core.Engine's sweep does:
// Invalidate(n) ahead of TTMc(n), then the factor changes.
func engineSweep(tree *DTree, u []*dense.Matrix, threads int, rng *rand.Rand) {
	for n := range u {
		tree.Invalidate(n)
		tree.TTMc(dense.NewMatrix(tree.NumRows(n), RowSize(u, n)), n, u, threads)
		u[n] = randomNormal(u[n].Rows, u[n].Cols, rng)
	}
}

// liveBuffers counts the value buffers the tree holds, in nodes and on
// the free list, and the capacity of the largest.
func liveBuffers(t *DTree) (count, largest int) {
	bufs := append([][]float64(nil), t.free...)
	for _, nd := range t.nodes {
		if nd.val != nil {
			bufs = append(bufs, nd.val)
		}
	}
	for _, b := range bufs {
		largest = max(largest, cap(b))
	}
	return len(bufs), largest
}

// In a Gauss–Seidel sweep the two memo nodes of an order-4 tree are
// never needed together, so they must take turns in ONE buffer, sized
// for the larger — and the products must not change for it: a tree that
// is thrown away after every call (so nothing is ever recycled) is the
// reference, bit for bit.
func TestDTreeSiblingNodesShareOneBuffer(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	dims, ranks := []int{14, 9, 11, 8}, []int{3, 2, 3, 2}
	x, u, _ := sparseSetup(rng, dims, ranks, 400)
	tree := NewDTree(x)
	largestNode := 0
	for _, nd := range tree.nodes[1:] {
		if !nd.isLeaf() {
			largestNode = max(largestNode, nd.n*nd.blockLen(ranks))
		}
	}
	for s := 0; s < 3; s++ {
		for n := range dims {
			tree.Invalidate(n)
			got := dense.NewMatrix(tree.NumRows(n), RowSize(u, n))
			tree.TTMc(got, n, u, 3)
			want := dense.NewMatrix(tree.NumRows(n), RowSize(u, n))
			NewDTree(x).TTMc(want, n, u, 1)
			if !reflect.DeepEqual(got.Data, want.Data) {
				t.Fatalf("sweep %d mode %d: product on recycled storage differs from a fresh tree's", s, n)
			}
			u[n] = randomNormal(u[n].Rows, u[n].Cols, rng)
		}
		if count, largest := liveBuffers(tree); count != 1 || largest != largestNode {
			t.Fatalf("sweep %d: tree holds %d value buffers, largest %d floats; want 1 of %d", s, count, largest, largestNode)
		}
	}
}

// A node or leaf evaluation must not allocate: what a contraction needs
// is built with the tree or grown once. On one thread the parallel
// regions run inline, so a steady-state sweep allocates nothing at all.
func TestDTreeSweepDoesNotAllocate(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	x, u, _ := sparseSetup(rng, []int{14, 9, 11, 8}, []int{3, 2, 3, 2}, 400)
	tree := NewDTree(x)
	ys := make([]*dense.Matrix, len(u))
	for n := range u {
		ys[n] = dense.NewMatrix(tree.NumRows(n), RowSize(u, n))
	}
	pass := func() {
		for n := range u {
			tree.Invalidate(n)
			tree.TTMc(ys[n], n, u, 1)
		}
	}
	pass()
	pass()
	if a := testing.AllocsPerRun(5, pass); a != 0 {
		t.Fatalf("a steady-state tree sweep allocates %v times, want 0", a)
	}
}

// The tree is the same for every build thread count.
func TestBuildDTreeThreadInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	for _, dims := range [][]int{{9, 7}, {12, 10, 8}, {9, 8, 10, 7}, {5, 6, 4, 5, 6}} {
		ranks := make([]int, len(dims))
		for i := range ranks {
			ranks[i] = 2
		}
		x, _, _ := sparseSetup(rng, dims, ranks, 250)
		serial := NewDTree(x)
		for _, threads := range []int{2, 4} {
			built := BuildDTree(x, threads)
			if len(built.nodes) != len(serial.nodes) {
				t.Fatalf("dims %v threads %d: %d nodes, serial build has %d", dims, threads, len(built.nodes), len(serial.nodes))
			}
			for i, nd := range built.nodes {
				ref := serial.nodes[i]
				if nd.lo != ref.lo || nd.hi != ref.hi || nd.n != ref.n ||
					!reflect.DeepEqual(nd.groups, ref.groups) || !reflect.DeepEqual(nd.dropped, ref.dropped) {
					t.Fatalf("dims %v threads %d: node %d [%d,%d) differs from the serial build", dims, threads, i, nd.lo, nd.hi)
				}
			}
		}
	}
}

// SweepFlops predicts exactly what a steady-state sweep executes.
func TestDTreeSweepFlopsMatchesMeasured(t *testing.T) {
	rng := rand.New(rand.NewSource(74))
	for _, dims := range [][]int{{12, 10, 8}, {9, 8, 10, 7}, {5, 6, 4, 5, 6}} {
		ranks := make([]int, len(dims))
		for i := range ranks {
			ranks[i] = 2 + i%2
		}
		x, u, _ := sparseSetup(rng, dims, ranks, 250)
		tree := NewDTree(x)
		engineSweep(tree, u, 2, rng)
		tree.ResetFlops()
		engineSweep(tree, u, 2, rng)
		if got, want := tree.Flops(), tree.SweepFlops(ranks); got != want {
			t.Fatalf("dims %v: a sweep executed %d madds, SweepFlops predicts %d", dims, got, want)
		}
	}
}

// goLoopsRootRows is the root-child loop in Go, kept as rootRows'
// oracle: per nonzero, each dropped mode's key gathered through the group
// id and its factor row; per run of equal lead keys an accumulator from
// +0 — AxpyUnrolled terms with one trailing mode, dense.GatherGer's Go
// path, accumKron terms otherwise — then one Ger of the lead row (the
// unit row on order 1) into the entry's block. A singleton of a leaf in
// split order is its value times ⊗ of its rows of the rest's factors.
func goLoopsRootRows(t *DTree) func(w, lo, hi int) {
	return func(w, lo, hi int) {
		c, sc := &t.call, &t.scratch[w]
		nd, bs := c.nd, c.bs
		trail, acc := nd.trail, sc.acc[:c.acc]
		frows := sc.rows[:len(trail)]
		vals, keys := t.x.Values(), t.root.keys
		for g := lo; g < hi; g++ {
			group, r := nd.groups.Group(g), c.row(g)
			if r >= c.multi {
				id, rest := group[0], make([][]float64, len(c.sp.rest))
				for j, m := range c.sp.rest {
					rest[j] = c.u[m].Row(int(keys[m][id]))
				}
				scaleKron(c.sp.kron.T.Row(r-c.multi), vals[id], rest)
				continue
			}
			row := c.dst[r*bs : (r+1)*bs]
			clear(row)
			lead := keys[nd.lead]
			for p := 0; p < len(group); {
				k := lead[group[p]]
				clear(acc)
				for ; p < len(group) && lead[group[p]] == k; p++ {
					id := group[p]
					if len(trail) == 1 {
						dense.AxpyUnrolled(vals[id], c.u[trail[0]].Row(int(keys[trail[0]][id])), acc)
						continue
					}
					for j, m := range trail {
						frows[j] = c.u[m].Row(int(keys[m][id]))
					}
					accumKron(acc, vals[id], frows, sc.bufA, sc.bufB)
				}
				leadRow := unitRow
				if len(nd.dropped) > 0 {
					leadRow = c.u[nd.lead].Row(int(k))
				}
				dense.Ger(leadRow, acc, row)
			}
		}
	}
}

// sameBits fails unless got holds want's bits.
func sameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	for i, v := range want {
		if math.Float64bits(got[i]) != math.Float64bits(v) {
			t.Fatalf("%s: element %d is %x on the %s kernels, %x on the Go loops", what, i, math.Float64bits(got[i]), dense.KernelName(), math.Float64bits(v))
		}
	}
}

// The root children give the bits of their Go loops: over two
// Gauss–Seidel sweeps every mode's product equals that of a kernel
// running goLoopsRootRows, in both shapes — the star at orders 1 to 5
// (order 1 leads with the unit row, order 2 has no trailing mode, order 3
// one), the binary tree at orders 2 to 5 (order 4's children trail one
// mode, order 5's right child two) — at ranks 5, 10 and mixed, on one
// thread and two, stored sorted (the first root child's streams alias
// the tensor) and shuffled (every child copies), with zero values and
// zero factor entries of both signs, which the zero skips see. So does a
// star leaf in split order (its compact rows too) and one on a
// Mode.Select-restricted list.
func TestDTreeMatchesGoLoopsBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(75))
	for _, dims := range [][]int{{50}, {40, 30}, {40, 30, 35}, {20, 15, 25, 18}, {9, 8, 10, 7, 11}} {
		for _, rank := range []int{5, 10, 0} {
			ranks := make([]int, len(dims))
			for i := range ranks {
				ranks[i] = rank
				if rank == 0 {
					ranks[i] = []int{3, 7, 1, 5, 16}[i]
				}
			}
			sorted, u, _ := sparseSetup(rng, dims, ranks, 900)
			for i := range sorted.Val {
				if i%11 == 0 {
					sorted.Val[i] = math.Copysign(0, float64(i%2)-0.5)
				}
			}
			for _, x := range []*tensor.COO{sorted, shuffledCopy(rng, sorted)} {
				sym := symbolic.Build(x, 1)
				for _, star := range []bool{true, false} {
					if !star && len(dims) < 2 {
						continue
					}
					build := func(threads int) *DTree {
						if star {
							return BuildFlat(x, sym, threads)
						}
						return BuildDTree(x, threads)
					}
					for threads := 1; threads <= 2; threads++ {
						tree, oracle := build(threads), build(1)
						oracle.rootFn = goLoopsRootRows(oracle)
						uu := make([]*dense.Matrix, len(u))
						for m := range u {
							uu[m] = u[m].Clone()
							uu[m].Row(0)[0], uu[m].Row(2)[ranks[m]-1] = 0, math.Copysign(0, -1)
						}
						for s := 0; s < 2; s++ {
							for n := range uu {
								tree.Invalidate(n)
								oracle.Invalidate(n)
								got := dense.NewMatrix(tree.NumRows(n), RowSize(uu, n))
								want := dense.NewMatrix(tree.NumRows(n), RowSize(uu, n))
								tree.TTMc(got, n, uu, threads)
								oracle.TTMc(want, n, uu, threads)
								sameBits(t, fmt.Sprintf("dims %v ranks %v star %v threads %d sweep %d mode %d", dims, ranks, star, threads, s, n), got.Data, want.Data)
								uu[n] = randomNormal(uu[n].Rows, uu[n].Cols, rng)
							}
						}
					}
				}
			}
		}
	}

	// A star in split order (modes 0 and 2 take it), and a star over every
	// other row of mode 1's lists.
	ranks := []int{4, 3, 5}
	x, u, sym := randomSetup(rng, []int{400, 6, 150}, ranks, 500)
	x.Val[0], u[1].Row(0)[0] = math.Copysign(0, -1), math.Copysign(0, -1)
	for threads := 1; threads <= 2; threads++ {
		star, oracle := BuildFlat(x, sym, threads), NewFlat(x, sym)
		oracle.rootFn = goLoopsRootRows(oracle)
		for n := range ranks {
			_, kr := star.SplitSingletons(n, ranks)
			_, okr := oracle.SplitSingletons(n, ranks)
			multi := star.NumRows(n)
			if kr != nil {
				multi -= kr.Rows()
				c := RowSize(u, n) / ranks[star.splits[n].group]
				kr.T, okr.T = *dense.NewMatrix(kr.Rows(), c), *dense.NewMatrix(kr.Rows(), c)
			}
			got, want := dense.NewMatrix(multi, RowSize(u, n)), dense.NewMatrix(multi, RowSize(u, n))
			star.TTMc(got, n, u, threads)
			oracle.TTMc(want, n, u, threads)
			what := fmt.Sprintf("split star threads %d mode %d", threads, n)
			sameBits(t, what, got.Data, want.Data)
			if kr != nil {
				sameBits(t, what+" compact rows", kr.T.Data, okr.T.Data)
			}
		}
		if star.splits[0] == nil || star.splits[2] == nil {
			t.Fatal("modes 0 and 2 of the split star are not in split order")
		}
		var rows []int32
		for r := 0; r < sym.Modes[1].NumRows(); r += 2 {
			rows = append(rows, int32(r))
		}
		sel := &symbolic.Structure{Modes: []symbolic.Mode{sym.Modes[1].Select(rows)}}
		star, oracle = BuildFlat(x, sel, threads), NewFlat(x, sel)
		oracle.rootFn = goLoopsRootRows(oracle)
		got, want := dense.NewMatrix(len(rows), RowSize(u, 1)), dense.NewMatrix(len(rows), RowSize(u, 1))
		star.TTMc(got, 1, u, threads)
		oracle.TTMc(want, 1, u, threads)
		sameBits(t, fmt.Sprintf("selected star threads %d", threads), got.Data, want.Data)
	}
}

// A root child copies 4 B per nonzero and dropped mode, unless its group
// order is the storage order: on a sorted tensor the first child's streams
// alias the tensor's arrays and count nothing, so the copies are the
// second child's; shuffled, both children copy, every mode once.
func TestDTreeStreamBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(76))
	for _, dims := range [][]int{{9, 7}, {12, 10, 8}, {9, 8, 10, 7}, {5, 6, 4, 5, 6}} {
		sorted, _, _ := sparseSetup(rng, dims, make([]int, len(dims)), 250)
		nnz := int64(sorted.NNZ())
		tree := NewDTree(sorted)
		left, right := tree.root.children[0], tree.root.children[1]
		if got, want := tree.StreamBytes(), 4*int64(len(right.dropped))*nnz; got != want {
			t.Fatalf("dims %v sorted: StreamBytes %d, want 4 B x %d dropped modes x %d nnz = %d", dims, got, len(right.dropped), nnz, want)
		}
		for _, m := range left.dropped {
			if &left.streams[m][0] != &sorted.Idx[m][0] {
				t.Fatalf("dims %v sorted: the first root child's mode-%d stream is a copy, want the tensor's array", dims, m)
			}
		}
		if got, want := NewDTree(shuffledCopy(rng, sorted)).StreamBytes(), 4*int64(len(dims))*nnz; got != want {
			t.Fatalf("dims %v shuffled: StreamBytes %d, want 4 B x %d modes x %d nnz = %d", dims, got, len(dims), nnz, want)
		}
	}
}
