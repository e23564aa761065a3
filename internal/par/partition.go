package par

import (
	"sort"
	"sync/atomic"
)

// Schedule names how a parallel row loop assigns iterations to workers.
// It has one value (dynamic and static scheduling won no benchmark row)
// and remains for ttm.TTMcSched's signature.
type Schedule int

// ScheduleBalanced partitions iterations into per-worker contiguous
// chains of near-equal total weight (prefix-sum chain-on-chain over the
// caller's weights) and lets workers that drain their chain early steal
// chunks from the heaviest remaining chain — static balance for the
// bulk, dynamic stealing for irregular tails. Every iteration has
// exactly one owner, so kernels that accumulate per-owner state in a
// fixed order produce bitwise-identical results for any thread count.
const ScheduleBalanced Schedule = 0

// PartitionChains splits [0, len(weights)) into parts contiguous chains
// of near-equal total weight and returns the chain boundaries as a
// slice of parts+1 offsets (chain k is [bounds[k], bounds[k+1])). The
// k-th boundary is placed at the prefix-sum position nearest to k/parts
// of the total weight — the classic chain-on-chain heuristic, optimal
// to within one item's weight. The result is a deterministic function
// of the inputs. A zero total weight (or parts == 1) degenerates to the
// uniform split.
func PartitionChains(weights []int64, parts int) []int32 {
	n := len(weights)
	if parts < 1 {
		parts = 1
	}
	bounds := make([]int32, parts+1)
	prefix := make([]int64, n+1)
	for i, w := range weights {
		if w < 0 {
			w = 0
		}
		prefix[i+1] = prefix[i] + w
	}
	total := prefix[n]
	if total == 0 {
		for k := 0; k <= parts; k++ {
			lo, _ := Split(n, parts, min(k, parts-1))
			if k == parts {
				lo = n
			}
			bounds[k] = int32(lo)
		}
		return bounds
	}
	bounds[parts] = int32(n)
	for k := 1; k < parts; k++ {
		// Target weight of the first k chains; place the boundary at
		// whichever neighboring prefix position is closer to it.
		target := total * int64(k) / int64(parts)
		j := sort.Search(n, func(i int) bool { return prefix[i+1] >= target })
		if j < n && prefix[j+1]-target < target-prefix[j] {
			j++
		}
		if j32 := int32(j); j32 < bounds[k-1] {
			bounds[k] = bounds[k-1]
		} else {
			bounds[k] = j32
		}
	}
	return bounds
}

// PartitionLPT assigns the weighted items to parts with the
// longest-processing-time greedy rule: items in descending weight order
// each go to the currently lightest part. Unlike the contiguous chains
// this can separate neighboring items, so it achieves tighter balance
// when a few heavy items dominate (LPT is a 4/3-approximation of the
// optimal makespan). Each part's item list comes back sorted ascending,
// preserving the owner-computes accumulation order. Ties (equal
// weights, equal loads) break by item and part id, so the result is
// deterministic.
func PartitionLPT(weights []int64, parts int) [][]int32 {
	n := len(weights)
	if parts < 1 {
		parts = 1
	}
	order := make([]int32, n)
	for i := range order {
		order[i] = int32(i)
	}
	sort.SliceStable(order, func(a, b int) bool { return weights[order[a]] > weights[order[b]] })

	// Min-heap of parts keyed by (load, part id).
	type entry struct {
		load int64
		part int32
	}
	heap := make([]entry, parts)
	for p := range heap {
		heap[p] = entry{0, int32(p)}
	}
	less := func(a, b entry) bool {
		return a.load < b.load || (a.load == b.load && a.part < b.part)
	}
	siftDown := func(i int) {
		for {
			l, r := 2*i+1, 2*i+2
			m := i
			if l < parts && less(heap[l], heap[m]) {
				m = l
			}
			if r < parts && less(heap[r], heap[m]) {
				m = r
			}
			if m == i {
				return
			}
			heap[i], heap[m] = heap[m], heap[i]
			i = m
		}
	}
	out := make([][]int32, parts)
	for _, it := range order {
		top := &heap[0]
		out[top.part] = append(out[top.part], it)
		w := weights[it]
		if w < 0 {
			w = 0
		}
		top.load += w
		siftDown(0)
	}
	for p := range out {
		sort.Slice(out[p], func(a, b int) bool { return out[p][a] < out[p][b] })
	}
	return out
}

// ChainLoads returns the total weight of each chain of a PartitionChains
// result.
func ChainLoads(weights []int64, bounds []int32) []int64 {
	loads := make([]int64, len(bounds)-1)
	for k := range loads {
		for i := bounds[k]; i < bounds[k+1]; i++ {
			loads[k] += weights[i]
		}
	}
	return loads
}

// Imbalance returns max(loads)/mean(loads), the load-balance metric of
// the paper's partitioning experiments (1.0 is perfect). Zero loads
// give 1.
func Imbalance(loads []int64) float64 {
	if len(loads) == 0 {
		return 1
	}
	var total, max int64
	for _, l := range loads {
		total += l
		if l > max {
			max = l
		}
	}
	if total == 0 {
		return 1
	}
	return float64(max) * float64(len(loads)) / float64(total)
}

// RunChains executes body(worker, lo, hi) over disjoint chunks covering
// [0, bounds[len-1]) on the shared pool. Worker w first drains "its"
// chain [bounds[w], bounds[w+1]) in chunks from the chain's atomic
// cursor; when its chain is empty it steals chunks from the chain with
// the most work remaining. Chunks shrink geometrically toward each
// chain's tail, so stealing granularity tightens exactly where the
// static balance was wrong. Every index is claimed exactly once, so
// owner-computes kernels stay bitwise deterministic under stealing. The
// cursors are the region's, grown once, so a call allocates nothing.
func RunChains(bounds []int32, threads int, body func(worker, lo, hi int)) {
	parts := len(bounds) - 1
	if parts <= 0 || bounds[parts] == bounds[0] {
		return
	}
	threads = DefaultThreads(threads)
	if threads <= 1 || parts == 1 {
		body(0, int(bounds[0]), int(bounds[parts]))
		return
	}
	r := begin(threads)
	if cap(r.cursors) < parts {
		r.cursors = make([]atomic.Int64, parts)
	}
	r.cursors = r.cursors[:parts]
	for c := range parts {
		r.cursors[c].Store(int64(bounds[c]))
	}
	r.sched, r.bounds, r.body = chains, bounds, BodyFunc(body)
	r.run()
}

// claim grabs the next chunk of chain c: an eighth of the remainder, at
// least minChunk.
func (r *region) claim(c int) (lo, hi int, ok bool) {
	const minChunk = 16
	end := int64(r.bounds[c+1])
	for {
		cur := r.cursors[c].Load()
		if cur >= end {
			return 0, 0, false
		}
		next := min(cur+max((end-cur)/8, minChunk), end)
		if r.cursors[c].CompareAndSwap(cur, next) {
			return int(cur), int(next), true
		}
	}
}

// workChains is worker w's share of a RunChains region.
func (r *region) workChains(w int) {
	parts := len(r.cursors)
	// Own chain first (workers beyond the chain count go straight to
	// stealing).
	if w < parts {
		for {
			lo, hi, ok := r.claim(w)
			if !ok {
				break
			}
			r.body.Run(w, lo, hi)
		}
	}
	// Steal from the chain with the most remaining work.
	for {
		best, bestLeft := -1, int64(0)
		for c := 0; c < parts; c++ {
			if left := int64(r.bounds[c+1]) - r.cursors[c].Load(); left > bestLeft {
				best, bestLeft = c, left
			}
		}
		if best < 0 {
			return
		}
		if lo, hi, ok := r.claim(best); ok {
			r.body.Run(w, lo, hi)
		} // else lost the race; rescan
	}
}

// RunParts executes body(worker, item) for every item of every part on
// the shared pool, worker w owning exactly the items of parts[w] in
// ascending order. It is the executor for PartitionLPT assignments;
// because ownership is total and per-part order fixed, owner-computes
// kernels are bitwise deterministic for any thread count.
func RunParts(parts [][]int32, body func(worker, item int)) {
	if len(parts) == 0 {
		return
	}
	r := begin(len(parts))
	r.parts = partsBody{parts: parts, body: body}
	r.runStatic(len(parts), &r.parts)
}

// partsBody is RunParts's Body over part ids, held in its region.
type partsBody struct {
	parts [][]int32
	body  func(worker, item int)
}

func (r *partsBody) Run(w, lo, hi int) {
	for _, items := range r.parts[lo:hi] {
		for _, it := range items {
			r.body(w, int(it))
		}
	}
}
