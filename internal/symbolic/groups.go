package symbolic

import "hypertensor/internal/tensor"

// Groups generalizes the per-mode update lists to mode *sets*: entries
// are grouped by their joint coordinates in a subset of modes, in CSR
// form. The dimension-tree TTMc engine keys every tree node by the mode
// set it keeps sparse, so the update list of a node groups the parent
// node's entries by their projection onto the child's modes. Like Mode,
// a Groups is symbolic only — built once per tensor and reused by every
// numeric sweep — and fixes the accumulation order (ascending entry id
// within each group), which is what makes the numeric tree kernels
// deterministic for any thread count.
type Groups struct {
	// Modes are the key modes, ascending.
	Modes []int
	// Keys[j][g] is group g's coordinate in mode Modes[j]. Groups are
	// ordered lexicographically by their key tuple.
	Keys [][]int32
	// Ptr are CSR row pointers into Ids, len(NumGroups)+1.
	Ptr []int32
	// Ids lists the entry ids of each group, ascending within a group;
	// a permutation of 0..n-1.
	Ids []int32
}

// NumGroups returns the number of distinct key tuples.
func (g *Groups) NumGroups() int { return len(g.Ptr) - 1 }

// Group returns the entry ids of the i-th group.
func (g *Groups) Group(i int) []int32 { return g.Ids[g.Ptr[i]:g.Ptr[i+1]] }

// GroupScratch holds the work arrays of GroupByModes — the second
// buffer of the radix ping-pong and the counting-sort histogram — so a
// caller that groups many times (one dimension-tree build groups once
// per node) allocates them once, at the largest size it meets. The zero
// value is ready to use; a scratch must not be shared between
// concurrent calls.
type GroupScratch struct {
	next, counts []int32
}

// int32s returns buf resized to n, reallocating only to grow.
func int32s(buf *[]int32, n int) []int32 {
	if cap(*buf) < n {
		*buf = make([]int32, n)
	}
	return (*buf)[:n]
}

// GroupByModes groups n entries by their joint coordinates in the given
// modes. keys is indexed by mode number; only the listed modes are
// consulted (others may be nil). The result orders groups
// lexicographically by coordinate tuple and entry ids ascending within
// each group, so it is a deterministic function of its inputs. The sort
// is an LSD radix of stable counting-sort passes — the same
// histogram/prefix-sum/scatter pattern as the per-mode update lists —
// so grouping costs O(n * len(modes)), not a comparison sort over the
// nonzero stream. The result's arrays are sized exactly (groups are
// counted before Ptr and Keys are made); everything else lives in sc,
// which may be nil for a one-off call.
func GroupByModes(keys [][]int32, n int, modes []int, sc *GroupScratch) *Groups {
	if sc == nil {
		sc = &GroupScratch{}
	}
	cols := make([][]int32, len(modes))
	for j, m := range modes {
		cols[j] = keys[m]
	}
	// Least-significant mode first: each pass is the shared stable
	// counting-sort pass, so after the final pass entries are in
	// lexicographic key order with original (ascending) ids within
	// equal tuples. The first pass reads the identity permutation
	// implicitly, and the passes alternate between the result's Ids and
	// the scratch so that the last one lands in Ids.
	ids := make([]int32, n)
	if len(cols) == 0 {
		for i := range ids {
			ids[i] = int32(i)
		}
	}
	var perm []int32 // nil = identity
	toIds := len(cols)%2 == 1
	for j := len(cols) - 1; j >= 0; j-- {
		col := cols[j][:n]
		var hi int32
		for _, k := range col {
			if k > hi {
				hi = k
			}
		}
		counts := int32s(&sc.counts, int(hi)+1)
		clear(counts)
		out := ids
		if !toIds {
			out = int32s(&sc.next, n)
		}
		groupByKey(col, perm, out, counts)
		perm, toIds = out, !toIds
	}
	same := func(a, b int32) bool {
		for _, col := range cols {
			if col[a] != col[b] {
				return false
			}
		}
		return true
	}
	groups := 0
	for i := 0; i < n; i++ {
		if i == 0 || !same(ids[i-1], ids[i]) {
			groups++
		}
	}
	g := &Groups{
		Modes: append([]int(nil), modes...),
		Keys:  make([][]int32, len(modes)),
		Ids:   ids,
		Ptr:   make([]int32, groups+1),
	}
	for c := range g.Keys {
		g.Keys[c] = make([]int32, groups)
	}
	gi := 0
	for i := 0; i < n; i++ {
		if i == 0 || !same(ids[i-1], ids[i]) {
			for c, col := range cols {
				g.Keys[c][gi] = col[ids[i]]
			}
			g.Ptr[gi] = int32(i)
			gi++
		}
	}
	g.Ptr[groups] = int32(n)
	return g
}

// FiberGroups is the CSF-native counterpart of GroupByModes for a
// single mode: it groups the level-l fibers of a CSF tensor by their
// slice index. Because a level groups runs of nonzeros already, this is
// one stable counting sort over the fiber count — usually far below the
// nonzero count — rather than over the nonzero stream, and at the root
// level it is free (root fibers are already sorted and distinct). The
// entries of the result are FIBER ids at level l, not nonzero ids, with
// ascending fiber order within each group.
func FiberGroups(c *tensor.CSF, l int) *Groups {
	fids := c.Fids(l)
	mode := c.Perm()[l]
	g := &Groups{Modes: []int{mode}, Keys: make([][]int32, 1)}
	if l == 0 {
		g.Keys[0] = fids
		g.Ids = make([]int32, len(fids))
		g.Ptr = make([]int32, len(fids)+1)
		for f := range fids {
			g.Ids[f] = int32(f)
			g.Ptr[f+1] = int32(f + 1)
		}
		return g
	}
	counts := make([]int32, c.Shape()[mode])
	g.Ids = make([]int32, len(fids))
	groupByKey(fids, nil, g.Ids, counts)
	g.Ptr = append(make([]int32, 0, len(fids)+1), 0)
	prev := int32(0)
	for k, end := range counts {
		if end > prev {
			g.Keys[0] = append(g.Keys[0], int32(k))
			g.Ptr = append(g.Ptr, end)
		}
		prev = end
	}
	return g
}
