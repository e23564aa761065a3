package par

import (
	"math"
	"math/rand"
	"reflect"
	"sync/atomic"
	"testing"
)

// skewedWeights builds a deterministic heavy-tailed weight vector of
// the shape real fiber nnz counts have: most fibers tiny, a few hot.
func skewedWeights(n int, seed int64) []int64 {
	rng := rand.New(rand.NewSource(seed))
	w := make([]int64, n)
	for i := range w {
		// Pareto-ish: 1/(u^1.2), capped well below total/parts so a
		// balanced partition is feasible.
		u := rng.Float64()
		w[i] = 1 + int64(20/math.Pow(u+0.01, 1.2))
	}
	return w
}

func TestPartitionChainsBalance(t *testing.T) {
	for _, parts := range []int{2, 4, 8, 16} {
		w := skewedWeights(20000, 42)
		bounds := PartitionChains(w, parts)
		if len(bounds) != parts+1 || bounds[0] != 0 || int(bounds[parts]) != len(w) {
			t.Fatalf("parts=%d: bad bounds %v", parts, bounds[:min(len(bounds), 6)])
		}
		for k := 1; k <= parts; k++ {
			if bounds[k] < bounds[k-1] {
				t.Fatalf("parts=%d: bounds not monotone at %d", parts, k)
			}
		}
		if imb := Imbalance(ChainLoads(w, bounds)); imb > 1.1 {
			t.Fatalf("parts=%d: chain imbalance %.3f > 1.1 on skewed weights", parts, imb)
		}
	}
}

func TestPartitionLPTBalance(t *testing.T) {
	for _, parts := range []int{2, 4, 8, 16} {
		w := skewedWeights(20000, 7)
		assign := PartitionLPT(w, parts)
		seen := make([]bool, len(w))
		for p, items := range assign {
			for i := 1; i < len(items); i++ {
				if items[i] <= items[i-1] {
					t.Fatalf("part %d items not ascending", p)
				}
			}
			for _, it := range items {
				if seen[it] {
					t.Fatalf("item %d assigned twice", it)
				}
				seen[it] = true
			}
		}
		for i, ok := range seen {
			if !ok {
				t.Fatalf("item %d unassigned", i)
			}
		}
		if imb := Imbalance(PartLoads(w, assign)); imb > 1.1 {
			t.Fatalf("parts=%d: LPT imbalance %.3f > 1.1 on skewed weights", parts, imb)
		}
	}
}

// LPT must beat contiguous chains when single items dominate the ideal
// per-part load.
func TestPartitionLPTHandlesHeavyItems(t *testing.T) {
	w := make([]int64, 64)
	for i := range w {
		w[i] = 1
	}
	// Four heavy items next to each other: chains must carry neighbors
	// together, LPT spreads them across parts.
	w[10], w[11], w[12], w[13] = 100, 100, 100, 100
	assign := PartitionLPT(w, 4)
	if imb := Imbalance(PartLoads(w, assign)); imb > 1.05 {
		t.Fatalf("LPT imbalance %.3f with separable heavy items", imb)
	}
}

func TestPartitionsDeterministic(t *testing.T) {
	w := skewedWeights(5000, 3)
	b1 := PartitionChains(w, 8)
	b2 := PartitionChains(w, 8)
	if !reflect.DeepEqual(b1, b2) {
		t.Fatal("PartitionChains not deterministic")
	}
	a1 := PartitionLPT(w, 8)
	a2 := PartitionLPT(w, 8)
	if !reflect.DeepEqual(a1, a2) {
		t.Fatal("PartitionLPT not deterministic")
	}
}

func TestPartitionChainsEdgeCases(t *testing.T) {
	if b := PartitionChains(nil, 4); int(b[4]) != 0 {
		t.Fatalf("empty weights: %v", b)
	}
	zero := make([]int64, 10)
	b := PartitionChains(zero, 4)
	if b[0] != 0 || int(b[4]) != 10 {
		t.Fatalf("zero weights bounds %v do not span", b)
	}
	one := []int64{9}
	b = PartitionChains(one, 4)
	if int(b[4]) != 1 {
		t.Fatalf("single item bounds %v", b)
	}
	// parts > n: every index still covered exactly once.
	b = PartitionChains([]int64{1, 2, 3}, 8)
	if b[0] != 0 || int(b[8]) != 3 {
		t.Fatalf("parts>n bounds %v", b)
	}
}

func TestRunChainsCoversExactlyOnce(t *testing.T) {
	w := skewedWeights(3000, 11)
	for _, threads := range []int{1, 2, 3, 8} {
		bounds := PartitionChains(w, threads)
		seen := make([]atomic.Int32, len(w))
		RunChains(bounds, threads, func(worker, lo, hi int) {
			for i := lo; i < hi; i++ {
				seen[i].Add(1)
			}
		})
		for i := range seen {
			if got := seen[i].Load(); got != 1 {
				t.Fatalf("threads=%d: index %d visited %d times", threads, i, got)
			}
		}
	}
}

func TestRunChainsStealingDrainsSkewedChains(t *testing.T) {
	// One chain holds nearly everything: stealing must still cover all.
	bounds := []int32{0, 1, 2, 10000}
	seen := make([]atomic.Int32, 10000)
	RunChains(bounds, 3, func(worker, lo, hi int) {
		for i := lo; i < hi; i++ {
			seen[i].Add(1)
		}
	})
	for i := range seen {
		if seen[i].Load() != 1 {
			t.Fatalf("index %d not covered exactly once under stealing", i)
		}
	}
}

func TestRunPartsCoversExactlyOnce(t *testing.T) {
	w := skewedWeights(2000, 5)
	for _, threads := range []int{1, 2, 4} {
		parts := PartitionLPT(w, threads)
		seen := make([]atomic.Int32, len(w))
		RunParts(parts, func(worker, item int) { seen[item].Add(1) })
		for i := range seen {
			if seen[i].Load() != 1 {
				t.Fatalf("threads=%d: item %d not visited exactly once", threads, i)
			}
		}
	}
}

// Owner-computes accumulation through every schedule executor must be
// bitwise identical for any thread count.
func TestScheduledSumsBitwiseAcrossThreads(t *testing.T) {
	const n = 4096
	vals := make([]float64, n)
	rng := rand.New(rand.NewSource(9))
	for i := range vals {
		vals[i] = rng.NormFloat64()
	}
	w := skewedWeights(n, 1)
	sum := func(threads int, chains bool) float64 {
		out := make([]float64, n)
		body := func(worker, lo, hi int) {
			for i := lo; i < hi; i++ {
				out[i] = vals[i] * vals[i] * float64(1+i%7)
			}
		}
		if chains {
			RunChains(PartitionChains(w, threads), threads, body)
		} else {
			Dynamic(n, threads, 0, BodyFunc(body))
		}
		var s float64
		for _, v := range out {
			s += v
		}
		return s
	}
	ref := sum(1, true)
	for _, threads := range []int{2, 4, 8} {
		if got := sum(threads, true); got != ref {
			t.Fatalf("chains threads=%d: %v != %v", threads, got, ref)
		}
		if got := sum(threads, false); got != ref {
			t.Fatalf("dynamic threads=%d: %v != %v", threads, got, ref)
		}
	}
}

func TestSumBlocksThreadCountInvariant(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 1000, 65537} {
		vals := make([]float64, n)
		rng := rand.New(rand.NewSource(int64(n)))
		for i := range vals {
			vals[i] = rng.NormFloat64()
		}
		f := func(lo, hi int) float64 {
			var s float64
			for i := lo; i < hi; i++ {
				s += vals[i] * vals[i]
			}
			return s
		}
		ref := SumBlocks(n, 1, f)
		for _, threads := range []int{2, 3, 8, 17} {
			if got := SumBlocks(n, threads, f); got != ref {
				t.Fatalf("n=%d threads=%d: %v != %v (not bitwise invariant)", n, threads, got, ref)
			}
		}
		var plain float64
		for _, v := range vals {
			plain += v * v
		}
		if math.Abs(ref-plain) > 1e-9*math.Max(1, math.Abs(plain)) {
			t.Fatalf("n=%d: SumBlocks %v far from plain sum %v", n, ref, plain)
		}
	}
}

func TestChunkForCapsChunkCount(t *testing.T) {
	cases := []struct{ n, threads int }{
		{100, 8}, {57, 4}, {1 << 20, 8}, {9, 8}, {1, 1},
	}
	for _, c := range cases {
		chunk := chunkFor(c.n, c.threads)
		if chunk < 1 {
			t.Fatalf("n=%d threads=%d: chunk %d < 1", c.n, c.threads, chunk)
		}
		chunks := (c.n + chunk - 1) / chunk
		if chunks > c.threads*8 {
			t.Fatalf("n=%d threads=%d: %d chunks overshoots %d (chunk=%d)",
				c.n, c.threads, chunks, c.threads*8, chunk)
		}
	}
}

func TestImbalance(t *testing.T) {
	if got := Imbalance([]int64{10, 10, 10, 10}); got != 1 {
		t.Fatalf("uniform imbalance %v", got)
	}
	if got := Imbalance([]int64{30, 10, 10, 10}); math.Abs(got-2.0) > 1e-12 {
		t.Fatalf("imbalance %v, want 2.0", got)
	}
	if got := Imbalance(nil); got != 1 {
		t.Fatalf("empty imbalance %v", got)
	}
}
