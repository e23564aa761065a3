package ttm

import (
	"fmt"
	"time"

	"hypertensor/internal/dense"
	"hypertensor/internal/par"
	"hypertensor/internal/symbolic"
	"hypertensor/internal/tensor"
)

// DTree is a dimension-tree TTMc engine: a binary tree over the tensor
// modes whose internal nodes memoize the partial mode contractions
// shared between the N per-mode TTMc products of one HOOI sweep
// (the dimension-tree scheme of the TuckerMPI / HyperTensor lineage).
//
// A node over the contiguous mode range [Lo, Hi) holds the semi-sparse
// value X ×_{t ∉ [Lo,Hi)} U_tᵀ: one entry per distinct projection of the
// nonzeros onto [Lo, Hi), each carrying a dense block over the
// contracted ranks (ascending mode order, later modes fastest — the
// same Kronecker layout as the flat TTMc kernel). The root is the
// sparse tensor itself; the leaf for mode n is exactly the compacted
// matricized product Y_(n) that HOOI feeds to the TRSVD.
//
// Each child is computed from its parent's cached value by contracting
// the modes the child drops, with the same lock-free row-parallel
// discipline as the flat kernel: every child entry is owned by exactly
// one worker and accumulated in the symbolic (CSR) order, so results
// are bitwise deterministic for any thread count. Updating factor U_n
// invalidates exactly the nodes whose mode set excludes n; the nodes on
// the root-to-leaf-n path stay valid, which is where the flop saving
// over the recompute-everything flat sweep comes from.
//
// The two root children contract straight from the nonzeros, which is
// where a sweep's gathers are. Each keeps, from the build on, the modes
// it drops as index streams in its own group order (symbolic.Gather, as
// Flat's symbolic.Mode.Streams): copies, 4 bytes per nonzero and dropped
// mode, except where the group order is the storage order (the first
// child of a sorted tensor), whose streams alias the tensor
// (StreamBytes). Only the values are gathered through the group ids, so
// a merge that changes values reaches the kernel through the tensor.
// A child that drops two modes and keeps two or more (every child at
// order 4, order 5's left child) runs the flat row's run loop, an entry in
// one dense.GatherGer: the first dropped mode leads, and each run of
// equal lead indices in a group adds one rank-one update of the lead row
// and the run's sum of trail rows. Any other root child runs accumKron
// per nonzero: one that drops three modes or more, and those of orders 2
// and 3, where the decomposition runs Flat and only tests pin the tree.
// Like Flat, the tree counts what ran: the runs are counted once, at the
// build.
//
// A DTree is built once per tensor (symbolic phase) and reused across
// sweeps and rank configurations; it is not safe for concurrent use.
type DTree struct {
	x      tensor.Sparse
	order  int
	root   *dnode
	nodes  []*dnode // topological order, parents before children
	leaves []*dnode // leaves[n] is the node for mode set {n}
	// ranks[m] is the factor column count the cached values were
	// computed with; a change invalidates every cache.
	ranks []int
	flops int64
	// nodeTime accumulates wall time spent recomputing internal nodes
	// (the memoized share of TTMc); leaf emission is the remainder.
	nodeTime time.Duration
	// free holds the value buffers of invalidated nodes for ensure to
	// draw from: in a Gauss–Seidel sweep a node dies (Invalidate) before
	// the next one is built, so the memo nodes of a sweep take turns in
	// the same storage instead of each keeping its own.
	free [][]float64
	// One contraction runs at a time, so its parameters (call), the
	// per-worker scratch and the region closures over them are the
	// tree's, built once: a node or leaf evaluation allocates nothing.
	call     contraction
	scratch  []kronScratch
	rootFn   func(worker, lo, hi int)
	innerFn  func(worker, lo, hi int)
	chainsFn func() []int32
	// The leaves in split order (SplitSingletons).
	splits
}

// contraction is the state of the running contract call.
type contraction struct {
	nd      *dnode
	dst     []float64
	u       []*dense.Matrix
	threads int
	bs      int // block size of nd
	// Internal step only: the parent's blocks are a x b, the dropped
	// modes' Kronecker row has d entries.
	a, b, d int
	// A leaf in split order (sp) writes entry g to block at[g] of dst
	// below multi and compactly to row at[g]-multi of sp's T from multi
	// on (compactRow).
	at    []int32 // nil: every entry to its own block of dst, all below multi
	multi int
	sp    *splitMode
}

// dnode is one tree node.
type dnode struct {
	lo, hi              int
	parent, left, right *dnode
	// groups maps parent entries to this node's entries (nil at root).
	groups *symbolic.Groups
	// keys[m] holds each entry's coordinate in mode m, for m in
	// [lo, hi); nil outside the range. At the root these alias the
	// tensor's index arrays.
	keys [][]int32
	n    int // number of entries
	// dropped lists, ascending, the modes the parent keeps sparse and
	// this node contracts.
	dropped []int
	// Numeric cache (internal nodes only; leaves are emitted straight
	// into the caller's matrix since each is consumed once per sweep).
	blockSize int
	val       []float64
	valid     bool
	computes  int
	// chains caches the balanced chain partition of the node's entries,
	// weighted by each entry's update-list length: the partition the
	// recompute loop runs on.
	chains symbolic.ChainCache
	// streams[j] holds, at a root child only, mode dropped[j]'s index of
	// every nonzero in the child's group order: streams[j][p] ==
	// keys[dropped[j]][groups.Ids[p]] of the root. streamBytes is what
	// they copy, 0 when they alias the root's arrays.
	streams     [][]int32
	streamBytes int64
	// runs counts, at a root child that runs the run loop (runLoop), the
	// spans of equal lead indices (streams[0]) inside its groups: the
	// loop's rank-one updates of a block.
	runs int64
}

func (nd *dnode) isLeaf() bool { return nd.hi-nd.lo == 1 }

// runLoop reports whether nd is a root child that drops two modes and
// keeps two or more, whose entries the run loop computes (rootRows).
func (nd *dnode) runLoop() bool {
	return nd.streams != nil && len(nd.dropped) == 2 && !nd.isLeaf()
}

// NewDTree builds the symbolic dimension tree for x: node structure and
// the per-node update lists (groupings). No factor matrices are needed;
// numeric values are computed lazily by TTMc. x must have order >= 2
// and at least one nonzero. Any storage format works: the tree operates
// on the per-mode index streams, which a CSF tensor expands (and keeps)
// on first use — the tree's own memoized nodes dominate its footprint
// either way.
func NewDTree(x tensor.Sparse) *DTree { return BuildDTree(x, 1) }

// BuildDTree is NewDTree on up to threads goroutines: the root's two
// subtrees group their entries independently, so with threads >= 2 they
// are built side by side. The tree is the same for every thread count.
func BuildDTree(x tensor.Sparse, threads int) *DTree {
	if x.Order() < 2 {
		panic("ttm: DTree requires an order >= 2 tensor")
	}
	if x.NNZ() == 0 {
		panic("ttm: DTree requires a nonempty tensor")
	}
	t := &DTree{
		x:      x,
		order:  x.Order(),
		leaves: make([]*dnode, x.Order()),
	}
	t.rootFn, t.innerFn, t.chainsFn = t.rootRows, t.innerRows, t.callChains
	t.root = &dnode{lo: 0, hi: t.order, n: x.NNZ(), keys: make([][]int32, t.order)}
	for m := 0; m < t.order; m++ {
		t.root.keys[m] = x.ModeStream(m)
	}
	t.nodes = append(t.nodes, t.root)
	t.split(t.root)
	// One grouping scratch serves a whole subtree: the root children
	// size it for the nonzero stream, everything below fits inside.
	if par.DefaultThreads(threads) >= 2 {
		done := make(chan struct{})
		go func() {
			defer close(done)
			t.group(t.root.left, &symbolic.GroupScratch{})
		}()
		t.group(t.root.right, &symbolic.GroupScratch{})
		<-done
	} else {
		sc := &symbolic.GroupScratch{}
		t.group(t.root.left, sc)
		t.group(t.root.right, sc)
	}
	return t
}

// split recursively lays out both children of an internal node
// (structure only; group fills in the update lists).
func (t *DTree) split(nd *dnode) {
	if nd.isLeaf() {
		t.leaves[nd.lo] = nd
		return
	}
	mid := (nd.lo + nd.hi + 1) / 2
	nd.left = t.makeChild(nd, nd.lo, mid)
	nd.right = t.makeChild(nd, mid, nd.hi)
	t.split(nd.left)
	t.split(nd.right)
}

func (t *DTree) makeChild(parent *dnode, lo, hi int) *dnode {
	c := &dnode{lo: lo, hi: hi, parent: parent, keys: make([][]int32, t.order)}
	for m := parent.lo; m < parent.hi; m++ {
		if m < lo || m >= hi {
			c.dropped = append(c.dropped, m)
		}
	}
	t.nodes = append(t.nodes, c)
	return c
}

// group builds the update lists of nd's subtree, top down: each node
// groups its parent's entries by its own mode range. A root child also
// gathers the index streams rootRows reads: for each dropped mode the
// root's keys in its group order, aliased where that order is the
// storage order (symbolic.Gather); one that runs the run loop counts
// its runs.
func (t *DTree) group(nd *dnode, sc *symbolic.GroupScratch) {
	modes := make([]int, nd.hi-nd.lo)
	for i := range modes {
		modes[i] = nd.lo + i
	}
	g := symbolic.GroupByModes(nd.parent.keys, nd.parent.n, modes, sc)
	nd.groups = g
	nd.n = g.NumGroups()
	for j, m := range modes {
		nd.keys[m] = g.Keys[j]
	}
	if nd.parent == t.root {
		keys := make([][]int32, len(nd.dropped))
		for j, m := range nd.dropped {
			keys[j] = t.root.keys[m]
		}
		nd.streams, nd.streamBytes = symbolic.Gather(g.Ids, keys)
	}
	if nd.runLoop() {
		// A run starts at each group's first position and wherever the
		// lead index changes inside a group: count every change, then
		// take back those at group starts, each group counted once.
		lead := nd.streams[0]
		nd.runs = int64(nd.n)
		for p := 1; p < len(lead); p++ {
			nd.runs += changes(lead, p)
		}
		for _, p := range g.Ptr[1:nd.n] {
			nd.runs -= changes(lead, int(p))
		}
	}
	if !nd.isLeaf() {
		t.group(nd.left, sc)
		t.group(nd.right, sc)
	}
}

// changes is 1 where s[p] differs from s[p-1] and 0 where it does not,
// without a branch: on a sorted order-4 tensor about every other
// position changes, which no branch predictor guesses.
func changes(s []int32, p int) int64 {
	d := s[p] ^ s[p-1]
	return int64(uint32(d|-d) >> 31)
}

// release hands nd's value buffer to the free list.
func (t *DTree) release(nd *dnode) {
	nd.valid = false
	if nd.val != nil {
		t.free = append(t.free, nd.val)
		nd.val = nil
	}
}

// take returns a value buffer of length need: the smallest free one
// that fits, or a new one sized for sibling too — the node that, sweep
// after sweep, is built right after nd died or right before it is.
func (t *DTree) take(nd *dnode, need int) []float64 {
	best := -1
	for i, buf := range t.free {
		if cap(buf) >= need && (best < 0 || cap(buf) < cap(t.free[best])) {
			best = i
		}
	}
	if best >= 0 {
		buf := t.free[best]
		last := len(t.free) - 1
		t.free[best], t.free[last] = t.free[last], nil
		t.free = t.free[:last]
		return buf[:need]
	}
	size := need
	sib := nd.parent.left
	if sib == nd {
		sib = nd.parent.right
	}
	if !sib.isLeaf() {
		size = max(size, sib.n*t.rowSize(sib))
	}
	return make([]float64, need, size)
}

// Invalidate records that factor matrix n changed: every cached node
// whose mode set excludes n (and therefore depends on U_n) is marked
// dirty. Nodes containing n — the root-to-leaf-n path — remain valid.
func (t *DTree) Invalidate(n int) {
	for _, nd := range t.nodes {
		if n < nd.lo || n >= nd.hi {
			t.release(nd)
		}
	}
}

// InvalidateAll drops every cached value (used when the factor ranks
// change between calls).
func (t *DTree) InvalidateAll() {
	for _, nd := range t.nodes {
		t.release(nd)
	}
	t.ranks = nil
}

// Flops returns the accumulated multiply-add count of all node and leaf
// computations so far: what ran, as Flat.Flops counts it (cost).
func (t *DTree) Flops() int64 { return t.flops }

// ResetFlops zeroes the flop counter (the cache state is untouched).
func (t *DTree) ResetFlops() { t.flops = 0 }

// StreamBytes reports what the root children's index streams copy: 4
// bytes per nonzero and dropped mode of each root child whose group
// order is not the storage order, nothing for one whose streams alias
// the tensor.
func (t *DTree) StreamBytes() int64 { return t.root.left.streamBytes + t.root.right.streamBytes }

// NodeTime returns the accumulated wall time spent recomputing internal
// tree nodes, the memoized portion of TTMc; the rest of each TTMc call
// is leaf emission.
func (t *DTree) NodeTime() time.Duration { return t.nodeTime }

// NodeInfo describes one tree node for tests and diagnostics.
type NodeInfo struct {
	Lo, Hi   int  // mode range [Lo, Hi)
	Entries  int  // distinct projections of the nonzeros
	Valid    bool // cached value up to date (internal nodes only)
	Computes int  // numeric recomputations so far
}

// Nodes reports the state of every tree node in topological order
// (root first).
func (t *DTree) Nodes() []NodeInfo {
	out := make([]NodeInfo, len(t.nodes))
	for i, nd := range t.nodes {
		out[i] = NodeInfo{Lo: nd.lo, Hi: nd.hi, Entries: nd.n, Valid: nd.valid, Computes: nd.computes}
	}
	return out
}

// NumRows returns the number of compact result rows for mode n (the
// count of nonempty slices), matching symbolic.Mode.NumRows.
func (t *DTree) NumRows(n int) int { return t.leaves[n].n }

// TTMc computes the compacted mode-n matricized product Y_(n) into y —
// the same result (and row order) as the flat TTMc over the mode's
// update lists — reusing every cached ancestor that is still valid and
// recomputing only invalidated ones. y must be pre-shaped
// NumRows(n) x RowSize(u, n); it is overwritten. A mode in split order
// writes its multi rows into y, which then has only those, and its
// singletons into the T its SplitSingletons rows hold, binding their U to
// the grouping factor.
func (t *DTree) TTMc(y *dense.Matrix, n int, u []*dense.Matrix, threads int) {
	t.syncRanks(u)
	leaf, sp := t.leaves[n], t.of(n)
	rows, rowSize := leaf.n, t.rowSize(leaf)
	if sp != nil {
		rows = sp.multi
		sp.bind(u, rowSize)
	}
	if y.Rows != rows || y.Cols != rowSize {
		panic("ttm: DTree TTMc output shape mismatch")
	}
	start := time.Now()
	t.ensure(leaf.parent, u, threads)
	t.nodeTime += time.Since(start)
	t.contract(leaf, y.Data, u, threads)
}

// syncRanks checks the factor column counts against the cached values
// and drops every cache when they changed.
func (t *DTree) syncRanks(u []*dense.Matrix) {
	if len(u) != t.order {
		panic(fmt.Sprintf("ttm: DTree built for order %d, got %d factors", t.order, len(u)))
	}
	same := t.ranks != nil
	for m := 0; m < t.order; m++ {
		if u[m] == nil {
			panic("ttm: DTree requires every factor matrix (leaves contract all other modes)")
		}
		if same && t.ranks[m] != u[m].Cols {
			same = false
		}
	}
	if same {
		return
	}
	t.InvalidateAll()
	t.ranks = make([]int, t.order)
	for m := 0; m < t.order; m++ {
		t.ranks[m] = u[m].Cols
	}
}

// rowSize is the dense block length of a node's entries at the ranks
// the caches were computed with.
func (t *DTree) rowSize(nd *dnode) int { return nd.blockLen(t.ranks) }

// cost is the multiply-adds of computing nd at the given ranks, and of
// one of its entries that holds one parent entry: a block update per
// parent entry, or in the run loop (runLoop) an update of a trail-rank
// accumulator per nonzero and a block update per run.
func (nd *dnode) cost(ranks []int) (total, single int64) {
	bs := int64(nd.blockLen(ranks))
	if !nd.runLoop() {
		return int64(nd.parent.n) * bs, bs
	}
	r := int64(ranks[nd.dropped[1]])
	return int64(nd.parent.n)*r + nd.runs*bs, r + bs
}

// blockLen is the dense block length of the node's entries at the given
// ranks: the product of the contracted modes' ranks.
func (nd *dnode) blockLen(ranks []int) int {
	size := 1
	for m, r := range ranks {
		if m < nd.lo || m >= nd.hi {
			size *= r
		}
	}
	return size
}

// ensure makes nd's cached value valid, recomputing ancestors first.
// The root is always valid (it is the tensor itself).
func (t *DTree) ensure(nd *dnode, u []*dense.Matrix, threads int) {
	if nd == t.root || nd.valid {
		return
	}
	t.ensure(nd.parent, u, threads)
	bs := t.rowSize(nd)
	nd.val = t.take(nd, nd.n*bs)
	nd.blockSize = bs
	t.contract(nd, nd.val, u, threads)
	nd.valid = true
}

// contract computes nd's value into dst (nd.n blocks of rowSize(nd))
// from its parent's value, contracting the modes the child drops. Every
// entry is owned by exactly one worker and accumulated in CSR order, so
// the result is deterministic for any thread count.
func (t *DTree) contract(nd *dnode, dst []float64, u []*dense.Matrix, threads int) {
	parent := nd.parent
	threads = par.DefaultThreads(threads)
	c := &t.call
	*c = contraction{nd: nd, dst: dst, u: u, threads: threads, bs: t.rowSize(nd), multi: nd.n}
	nd.computes++
	total, single := nd.cost(t.ranks)
	t.flops += total
	if sp := t.splitOf(nd); sp != nil {
		// A singleton entry is one parent entry, written c wide.
		c.at, c.multi, c.sp = sp.at, sp.multi, sp
		t.flops -= int64(sp.kron.T.Rows) * (single - int64(sp.kron.T.Cols))
	}

	// kron is the longest Kronecker product a worker builds per entry,
	// acc the run loop's accumulator.
	kron, acc := 1, 0
	body := t.rootFn
	if parent == t.root {
		// Root child: contract straight from the nonzeros with the flat
		// TTMc's kernels; the last dropped mode's row is AXPY-ed, the
		// rest form the prefix (accumKron) or lead the runs.
		last := len(nd.dropped) - 1
		for _, m := range nd.dropped[:last] {
			kron *= t.ranks[m]
		}
		acc = t.ranks[nd.dropped[last]]
	} else {
		// Internal step: the parent's blocks cover the modes outside
		// [parent.lo, parent.hi) as an a x b matrix (a = ranks before
		// the range, b = ranks after). The dropped modes sit between
		// those two groups in the child's ascending layout, so each
		// parent block is scaled into the child block at stride
		// positions:
		//
		//	child[a, d, b] += parent[a, b] * (⊗_{m dropped} U_m(key_m, :))[d]
		body = t.innerFn
		c.a, c.b = 1, 1
		for m := 0; m < parent.lo; m++ {
			c.a *= t.ranks[m]
		}
		for m := parent.hi; m < t.order; m++ {
			c.b *= t.ranks[m]
		}
		for _, m := range nd.dropped {
			kron *= t.ranks[m]
		}
		c.d = kron
	}
	t.scratch = growKronScratch(t.scratch, threads, t.order, kron, acc)
	runRows(nd.n, threads, t.chainsFn, body)
	c.dst, c.u, c.at, c.sp = nil, nil, nil, nil
}

// splitOf is nd's split order: its mode's for a leaf in split order, nil
// for any other node.
func (t *DTree) splitOf(nd *dnode) *splitMode {
	if !nd.isLeaf() {
		return nil
	}
	return t.of(nd.lo)
}

// callChains is the balanced partition of the running contraction.
func (t *DTree) callChains() []int32 {
	nd := t.call.nd
	return nd.chains.Partition(nd.groups.Ptr, t.call.threads)
}

// rootRows computes entries [lo, hi) of a root child from the nonzeros,
// reading the dropped modes' indices from the child's streams and each
// value through the group's ids. Where the child runs the run loop
// (runLoop) an entry is one dense.GatherGer into the cleared block: the
// first dropped mode's rows lead, the second's trail. Elsewhere it is
// rootRowsKron's.
func (t *DTree) rootRows(w, lo, hi int) {
	c, nd := &t.call, t.call.nd
	if !nd.runLoop() {
		t.rootRowsKron(w, lo, hi)
		return
	}
	ptr, ids, vals, bs := nd.groups.Ptr, nd.groups.Ids, t.x.Values(), c.bs
	lead, trail, acc := nd.streams[0], nd.streams[1], t.scratch[w].acc
	l, x := c.u[nd.dropped[0]], c.u[nd.dropped[1]]
	for g := lo; g < hi; g++ {
		p, end := ptr[g], ptr[g+1]
		blk := c.dst[g*bs : (g+1)*bs]
		clear(blk)
		dense.GatherGer(lead[p:end], l, vals, ids[p:end], trail[p:end], x, acc, blk)
	}
}

// Rows lists the nonempty slices of mode n in the order of Y_(n)'s
// rows: sorted, matching symbolic.Mode.Rows, unless the mode is in split
// order (SplitSingletons), where they match Flat.Rows.
func (t *DTree) Rows(n int) []int32 {
	if sp := t.of(n); sp != nil {
		return sp.rows
	}
	return t.leaves[n].keys[n]
}

// rootRowsKron is rootRows for a root child off the run loop:
// accumKron adds each nonzero's product into its entry's block. A leaf
// (orders 2 and 3) may be in split order.
func (t *DTree) rootRowsKron(w, lo, hi int) {
	c, sc := &t.call, &t.scratch[w]
	nd, bs := c.nd, c.bs
	ptr, ids, vals, s := nd.groups.Ptr, nd.groups.Ids, t.x.Values(), nd.streams
	frows := sc.rows[:len(nd.dropped)]
	for g := lo; g < hi; g++ {
		r := c.row(g)
		if r >= c.multi {
			t.compactRow(w, g, r-c.multi)
			continue
		}
		row := c.dst[r*bs : (r+1)*bs]
		clear(row)
		for p := ptr[g]; p < ptr[g+1]; p++ {
			for j, m := range nd.dropped {
				frows[j] = c.u[m].Row(int(s[j][p]))
			}
			accumKron(row, vals[ids[p]], frows, sc.bufA, sc.bufB)
		}
	}
}

// innerRows computes entries [lo, hi) of a deeper node from its
// parent's cached blocks.
func (t *DTree) innerRows(w, lo, hi int) {
	c, sc := &t.call, &t.scratch[w]
	nd, bs := c.nd, c.bs
	parent := nd.parent
	a, b, d := c.a, c.b, c.d
	pbs := parent.blockSize
	frows := sc.rows[:len(nd.dropped)]
	for g := lo; g < hi; g++ {
		r := c.row(g)
		if r >= c.multi {
			t.compactRow(w, g, r-c.multi)
			continue
		}
		blk := c.dst[r*bs : (r+1)*bs]
		clear(blk)
		for _, e := range nd.groups.Group(g) {
			var kw []float64
			if len(nd.dropped) == 1 {
				m := nd.dropped[0]
				kw = c.u[m].Row(int(parent.keys[m][e]))
			} else {
				for j, m := range nd.dropped {
					frows[j] = c.u[m].Row(int(parent.keys[m][e]))
				}
				kw = sc.bufA[:d]
				KronRows(frows, kw)
			}
			pblk := parent.val[int(e)*pbs : (int(e)+1)*pbs]
			if b == 1 {
				// blk[ai*d+di] += pblk[ai]*kw[di]: one rank-one update of
				// the whole a x d block (the product commutes bitwise).
				dense.Ger(pblk, kw, blk)
				continue
			}
			for ai := 0; ai < a; ai++ {
				dense.Ger(kw, pblk[ai*b:(ai+1)*b], blk[ai*d*b:(ai+1)*d*b])
			}
		}
	}
}

// SweepFlops returns the tree's multiply-add count of one steady-state
// HOOI sweep at the given ranks: a Gauss–Seidel sweep builds every node
// below the root exactly once, at its cost; a leaf in split order writes
// each singleton's row in RowSize/R_Group, as Flat.SweepFlops counts it.
func (t *DTree) SweepFlops(ranks []int) int64 {
	var sum int64
	for _, nd := range t.nodes[1:] {
		total, single := nd.cost(ranks)
		sum += total
		if sp := t.splitOf(nd); sp != nil {
			sum -= int64(sp.kron.Rows()) * (single - int64(nd.blockLen(ranks)/ranks[sp.group]))
		}
	}
	return sum
}

// SweepFlops returns the nominal multiply-add count of one full HOOI
// sweep over all modes (the recompute-everything cost the kernels are
// measured against, not what Flat executes): sum over modes of Flops.
func SweepFlops(nnz int, u []*dense.Matrix) int64 {
	var total int64
	for n := range u {
		total += Flops(nnz, RowSize(u, n))
	}
	return total
}
