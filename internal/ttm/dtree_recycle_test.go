package ttm

import (
	"math/rand"
	"reflect"
	"testing"

	"hypertensor/internal/dense"
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
