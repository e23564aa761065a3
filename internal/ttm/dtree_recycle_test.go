package ttm

import (
	"math/rand"
	"reflect"
	"testing"

	"hypertensor/internal/dense"
	"hypertensor/internal/tensor"
)

// engineSweep drives the tree the way core.Engine's sweep does:
// Invalidate(n) ahead of TTMc(n), then the factor changes.
func engineSweep(tree *DTree, u []*dense.Matrix, threads int, rng *rand.Rand) {
	for n := range u {
		tree.Invalidate(n)
		tree.TTMc(dense.NewMatrix(tree.NumRows(n), RowSize(u, n)), n, u, threads)
		u[n] = dense.RandomNormal(u[n].Rows, u[n].Cols, rng)
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
			u[n] = dense.RandomNormal(u[n].Rows, u[n].Cols, rng)
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

// The dirty-entry path must be exact on recycled storage: node {2,3}
// is built in the buffer node {0,1} died in, a delta then marks some of
// its entries stale, and the partial recompute over them — everything
// else in the buffer left as it is — must give the products of a tree
// built cold on the mutated tensor, bit for bit.
func TestDTreeDirtyEntriesOnRecycledBuffer(t *testing.T) {
	dims, ranks := []int{8, 10, 12, 14}, []int{3, 3, 2, 2}
	x := deltaTestTensor(17, dims, 220)
	u := randFactors(19, dims, ranks)
	tree := NewDTree(x)
	y := func(tr *DTree, n int) *dense.Matrix {
		out := dense.NewMatrix(tr.NumRows(n), RowSize(u, n))
		tr.TTMc(out, n, u, 2)
		return out
	}
	y(tree, 0)         // builds {0,1}
	tree.Invalidate(2) // {0,1} dies, its buffer is free
	y(tree, 2)         // builds {2,3} in it
	if n, _ := liveBuffers(tree); n != 1 {
		t.Fatalf("tree holds %d value buffers after the hand-over, want 1", n)
	}

	oldNNZ := x.NNZ()
	d := tensor.NewCOO(dims, 0)
	coord := make([]int, len(dims))
	d.Append(x.Coord(5, coord), 0.75)
	d.Append(x.Coord(120, coord), -1.25)
	for m := range coord {
		coord[m] = dims[m] - 1
	}
	d.Append(coord, 2)
	info, err := x.Merge(d)
	if err != nil {
		t.Fatal(err)
	}
	tree.ApplyDelta(info.Updated, oldNNZ)
	if ni := nodeByRange(tree.Nodes(), 2, 4); !ni.Valid || ni.Dirty == 0 {
		t.Fatalf("node {2,3} after the delta: valid=%v dirty=%d; want a valid node with stale entries", ni.Valid, ni.Dirty)
	}

	fresh := NewDTree(x)
	for _, n := range []int{3, 2} {
		got, want := y(tree, n), y(fresh, n)
		if !reflect.DeepEqual(got.Data, want.Data) {
			t.Fatalf("mode %d: partial recompute on recycled storage differs from a cold tree", n)
		}
	}
	if ni := nodeByRange(tree.Nodes(), 2, 4); ni.Partials != 1 || ni.Computes != 1 {
		t.Fatalf("node {2,3}: %d partial and %d full evaluations, want 1 and 1", ni.Partials, ni.Computes)
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

// A stream of structural deltas, each followed by sweeps, must not grow
// the tree's stock of value buffers: a node that outgrew its buffer
// gets a new one and the old one goes to the collector, not onto the
// free list for good.
func TestDTreeBuffersStayBoundedUnderDeltas(t *testing.T) {
	rng := rand.New(rand.NewSource(75))
	dims, ranks := []int{8, 10, 12, 14}, []int{2, 2, 2, 2}
	x := deltaTestTensor(23, dims, 200)
	u := randFactors(29, dims, ranks)
	tree := NewDTree(x)
	engineSweep(tree, u, 2, rng)
	coord := make([]int, len(dims))
	for round := 0; round < 6; round++ {
		oldNNZ := x.NNZ()
		d := tensor.NewCOO(dims, 0)
		for i := 0; i < 12; i++ {
			for m := range coord {
				coord[m] = rng.Intn(dims[m])
			}
			d.Append(coord, rng.NormFloat64())
		}
		info, err := x.Merge(d)
		if err != nil {
			t.Fatal(err)
		}
		tree.ApplyDelta(info.Updated, oldNNZ)
		engineSweep(tree, u, 2, rng)
		engineSweep(tree, u, 2, rng)
		if n, _ := liveBuffers(tree); n > 2 {
			t.Fatalf("round %d: the tree holds %d value buffers for its 2 memo nodes", round, n)
		}
	}
}
