package hypergraph

import (
	"math/rand"
	"sort"
)

// Options configure the multilevel partitioner.
type Options struct {
	// Parts is the number of parts K. Required (>= 1).
	Parts int
	// Seed drives all randomized decisions; fixed seed = fixed result.
	Seed int64
}

// The partitioner's fixed settings: the allowed load imbalance, the
// refinement sweeps per level, and the net size above which a net is
// left out of the coarsening scores. Coarsening stops at max(200, 30·K)
// vertices.
const (
	epsilon    = 0.10
	passes     = 4
	maxNetSize = 256
)

// Partition computes a K-way partition of the hypergraph minimizing the
// connectivity-1 cutsize under the balance constraint, with the
// classical multilevel scheme: heavy-connectivity coarsening, a balanced
// greedy initial partition of the coarsest hypergraph, and K-way FM
// refinement during uncoarsening. It is the library's stand-in for
// PaToH and produces the "fine-hp"/"coarse-hp" partitions of the
// experiments.
func Partition(h *Hypergraph, opts Options) []int32 {
	k := opts.Parts
	if k <= 1 || h.NumV == 0 {
		return make([]int32, h.NumV)
	}
	rng := rand.New(rand.NewSource(opts.Seed))

	// Coarsening phase.
	type level struct {
		h    *Hypergraph
		vmap []int32 // fine vertex -> coarse vertex of next level
	}
	var levels []level
	cur := h
	maxClusterW := cur.TotalWeight()/(2*int64(k)) + 1
	for coarsest := max(200, 30*k); cur.NumV > coarsest; {
		coarse, vmap, ok := coarsen(cur, maxClusterW, maxNetSize, rng)
		if !ok {
			break
		}
		levels = append(levels, level{h: cur, vmap: vmap})
		cur = coarse
	}

	// Initial partition of the coarsest hypergraph: LPT greedy (heaviest
	// vertex to least-loaded part) gives balance; refinement supplies
	// the cut quality.
	parts := lptPartition(cur.VWeights, k, rng)
	refine(cur, parts, k, epsilon, passes+2, rng)

	// Uncoarsening with refinement at every level.
	for li := len(levels) - 1; li >= 0; li-- {
		fine := levels[li]
		fineParts := make([]int32, fine.h.NumV)
		for v := range fineParts {
			fineParts[v] = parts[fine.vmap[v]]
		}
		parts = fineParts
		refine(fine.h, parts, k, epsilon, passes, rng)
	}
	return parts
}

// lptPartition assigns vertices to parts with the longest-processing-
// time greedy rule: descending weight, least-loaded part first, with
// random tie order.
func lptPartition(weights []int64, k int, rng *rand.Rand) []int32 {
	n := len(weights)
	order := rng.Perm(n)
	sort.SliceStable(order, func(a, b int) bool { return weights[order[a]] > weights[order[b]] })
	parts := make([]int32, n)
	loads := make([]int64, k)
	for _, v := range order {
		best := 0
		for p := 1; p < k; p++ {
			if loads[p] < loads[best] {
				best = p
			}
		}
		parts[v] = int32(best)
		loads[best] += weights[v]
	}
	return parts
}
