package ttm

import (
	"fmt"
	"time"

	"hypertensor/internal/dense"
	"hypertensor/internal/par"
	"hypertensor/internal/symbolic"
	"hypertensor/internal/tensor"
)

// DTree is the TTMc kernel: a tree over the tensor modes whose root is
// the sparse tensor and whose leaf for mode n is the compacted
// matricized product Y_(n) that HOOI feeds to the TRSVD. Its shape is
// fixed when it is built:
//
//   - Binary (BuildDTree): the dimension tree of the TuckerMPI /
//     HyperTensor lineage, each internal node over a contiguous mode
//     range halved into two children, which memoize the partial
//     contractions shared between a sweep's N products. The default from
//     order 4 up.
//   - Star (BuildFlat): the root's children are the N leaves, each
//     computed from the nonzeros over its mode's update lists — the
//     paper's flat, fused TTMc (Algorithm 3) — with no memo.
//
// A node over the mode range [Lo, Hi) holds the semi-sparse value
// X ×_{t ∉ [Lo,Hi)} U_tᵀ: one entry per distinct projection of the
// nonzeros onto [Lo, Hi), each a dense block over the contracted ranks
// (ascending mode order, later modes fastest), computed from its
// parent's value by contracting the modes it drops. Every entry is owned
// by exactly one worker and accumulated in its group's order, so results
// are bitwise deterministic for any thread count. Updating factor U_n
// invalidates exactly the nodes whose mode set excludes n; the nodes on
// the root-to-leaf-n path stay valid, which is where the binary tree's
// flop saving comes from.
//
// The root's children contract the nonzeros in one loop (rootRows),
// reading the modes they drop as index streams gathered at the build in
// their group order (symbolic.Gather): 4 bytes per listed nonzero and
// dropped mode, nothing where the group order is the storage order and
// the streams alias the tensor (StreamBytes). Values are read through the
// group ids, so a merge that changes values reaches the kernel through
// the tensor. The tree counts what ran (Flops).
//
// A DTree is built once per tensor (symbolic phase) and reused across
// sweeps and rank configurations; it is not safe for concurrent use.
// It writes neither the tensor nor a star's update lists, so any number
// of kernels may run on one structure at once.
type DTree struct {
	x     tensor.Sparse
	order int
	root  *dnode
	nodes []*dnode // topological order, parents before children
	// leaves[n] is the node for mode set {n}; nil for a mode a star was
	// not given lists for (TTMc).
	leaves []*dnode
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
	// splits[n] is mode n's split order, nil for a mode in ascending
	// order (SplitSingletons).
	splits []*splitMode
}

// contraction is the state of the running contract call.
type contraction struct {
	nd      *dnode
	dst     []float64
	u       []*dense.Matrix
	threads int
	bs      int // block size of nd
	// Root child only: the lead factor (nil on order 1, whose lead row
	// is the unit row) and the accumulator's length.
	lead *dense.Matrix
	acc  int
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
	lo, hi   int
	parent   *dnode
	children []*dnode
	// groups maps parent entries to this node's entries (nil at root);
	// a star leaf's are its mode's update lists.
	groups *symbolic.Groups
	// keys[m] holds each entry's coordinate in mode m, for m in
	// [lo, hi); nil outside the range. At the root these alias the
	// tensor's index arrays.
	keys [][]int32
	n    int // number of entries
	// dropped lists, ascending, the modes the parent keeps sparse and
	// this node contracts. A root child factors lead out of its runs —
	// the first dropped mode, or its own on order 1, which drops none, so
	// that an entry is one run of the unit row — and accumulates the
	// trail, the others, per nonzero.
	dropped []int
	lead    int
	trail   []int
	// Numeric cache (internal nodes only; leaves are emitted straight
	// into the caller's matrix since each is consumed once per sweep).
	blockSize int
	val       []float64
	valid     bool
	computes  int
	// chains caches the balanced chain partition of the node's entries,
	// weighted by each entry's group length: the partition the
	// recompute loop runs on.
	chains symbolic.ChainCache
	// streams[m] holds, at a root child only, mode m's index of every
	// listed nonzero in the child's group order, for each mode the child
	// drops (its own mode on order 1, which drops none): streams[m][p] ==
	// keys[m][groups.Ids[p]] of the root; nil for any other mode.
	// streamBytes is what they copy, 0 when they alias the root's arrays.
	streams     [][]int32
	streamBytes int64
	// runs counts, at a root child, the spans of equal lead indices
	// inside its groups: the rank-one updates of a block rootRows makes.
	runs int64
}

func (nd *dnode) isLeaf() bool { return nd.hi-nd.lo == 1 }

// NewDTree is BuildDTree on one thread.
func NewDTree(x tensor.Sparse) *DTree { return BuildDTree(x, 1) }

// BuildDTree builds the binary dimension tree for x: node structure and
// the per-node update lists (groupings). No factor matrices are needed;
// numeric values are computed lazily by TTMc. x must have order >= 2
// and at least one nonzero. Any storage format works: the tree operates
// on the per-mode index streams, which a CSF tensor expands (and keeps)
// on first use. The root's subtrees group their entries independently,
// on up to threads goroutines; the tree is the same for every thread
// count.
func BuildDTree(x tensor.Sparse, threads int) *DTree {
	if x.Order() < 2 {
		panic("ttm: DTree requires an order >= 2 tensor")
	}
	if x.NNZ() == 0 {
		panic("ttm: DTree requires a nonempty tensor")
	}
	t := newTree(x)
	t.split(t.root)
	t.group(threads)
	return t
}

// NewFlat is BuildFlat on one thread.
func NewFlat(x *tensor.COO, sym *symbolic.Structure) *DTree { return BuildFlat(x, sym, 1) }

// BuildFlat builds the star over a coordinate tensor and the symbolic
// structure whose nonzero ids index it: a leaf per mode of sym, whose
// entries are the mode's nonempty slices and whose groups are its update
// lists — also those Mode.Select restricted, which make the kernel
// compute exactly those rows. It gathers each leaf's index streams on
// up to threads goroutines; sym is only read, here and in every call.
// Value changes reach the kernel through x.Val; a merge that appends
// nonzeros needs a new kernel on the structure Structure.Insert brought
// in line.
func BuildFlat(x *tensor.COO, sym *symbolic.Structure, threads int) *DTree {
	t := newTree(x)
	for _, sm := range sym.Modes {
		t.makeChild(t.root, sm.N, sm.N+1).groups = &symbolic.Groups{Modes: []int{sm.N}, Keys: [][]int32{sm.Rows}, Ptr: sm.Ptr, Ids: sm.NZ}
	}
	t.group(threads)
	return t
}

func newTree(x tensor.Sparse) *DTree {
	t := &DTree{x: x, order: x.Order(), leaves: make([]*dnode, x.Order()), splits: make([]*splitMode, x.Order())}
	t.rootFn, t.innerFn, t.chainsFn = t.rootRows, t.innerRows, t.callChains
	t.root = &dnode{lo: 0, hi: t.order, n: x.NNZ(), keys: make([][]int32, t.order)}
	for m := 0; m < t.order; m++ {
		t.root.keys[m] = x.ModeStream(m)
	}
	t.nodes = append(t.nodes, t.root)
	return t
}

// split recursively lays out both halves of an internal node's range
// (structure only; group fills in the update lists).
func (t *DTree) split(nd *dnode) {
	if nd.isLeaf() {
		return
	}
	mid := (nd.lo + nd.hi + 1) / 2
	t.makeChild(nd, nd.lo, mid)
	t.makeChild(nd, mid, nd.hi)
	for _, c := range nd.children {
		t.split(c)
	}
}

func (t *DTree) makeChild(parent *dnode, lo, hi int) *dnode {
	c := &dnode{lo: lo, hi: hi, parent: parent, keys: make([][]int32, t.order), lead: lo}
	for m := parent.lo; m < parent.hi; m++ {
		if m < lo || m >= hi {
			c.dropped = append(c.dropped, m)
		}
	}
	if len(c.dropped) > 0 {
		c.lead, c.trail = c.dropped[0], c.dropped[1:]
	}
	parent.children = append(parent.children, c)
	t.nodes = append(t.nodes, c)
	if c.isLeaf() {
		t.leaves[lo] = c
	}
	return c
}

// group fills in the update lists of the root's subtrees side by side,
// one grouping scratch per worker: the root children size it for the
// nonzero stream, everything below fits inside.
func (t *DTree) group(threads int) {
	kids := t.root.children
	scratch := make([]symbolic.GroupScratch, min(par.DefaultThreads(threads), max(len(kids), 1)))
	par.Dynamic(len(kids), len(scratch), 1, par.BodyFunc(func(w, lo, hi int) {
		for _, c := range kids[lo:hi] {
			t.groupNode(c, &scratch[w])
		}
	}))
}

// groupNode builds the update lists of nd's subtree, top down: each node
// groups its parent's entries by its own mode range (a star leaf has its
// mode's lists already). A root child also gathers the index streams
// rootRows reads, for each dropped mode the root's keys in its group
// order, aliased where that order is the storage order
// (symbolic.Gather), and counts its runs.
func (t *DTree) groupNode(nd *dnode, sc *symbolic.GroupScratch) {
	if nd.groups == nil {
		modes := make([]int, nd.hi-nd.lo)
		for i := range modes {
			modes[i] = nd.lo + i
		}
		nd.groups = symbolic.GroupByModes(nd.parent.keys, nd.parent.n, modes, sc)
	}
	g := nd.groups
	nd.n = g.NumGroups()
	for j, m := range g.Modes {
		nd.keys[m] = g.Keys[j]
	}
	if nd.parent == t.root {
		keys := make([][]int32, t.order)
		keys[nd.lead] = t.root.keys[nd.lead]
		for _, m := range nd.trail {
			keys[m] = t.root.keys[m]
		}
		nd.streams, nd.streamBytes = symbolic.Gather(g.Ids, keys)
		nd.runs = countRuns(nd.streams[nd.lead], g.Ptr)
	}
	for _, c := range nd.children {
		t.groupNode(c, sc)
	}
}

// countRuns counts the spans of equal lead indices inside the groups
// ptr delimits. A run starts at each group's first position and wherever
// the lead index changes inside a group: it counts every change, then
// takes back those at group starts, each group counted once.
func countRuns(lead, ptr []int32) int64 {
	runs := int64(len(ptr) - 1)
	if len(lead) > 0 {
		prev := lead[0]
		for _, v := range lead[1:] {
			runs += changes(prev, v)
			prev = v
		}
	}
	for _, p := range ptr[1:max(len(ptr)-1, 1)] {
		runs -= changes(lead[p-1], lead[p])
	}
	return runs
}

// changes is 1 where a and b differ and 0 where they do not, without a
// branch: on a sorted order-4 tensor about every other position changes,
// which no branch predictor guesses.
func changes(a, b int32) int64 {
	d := a ^ b
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
// that fits, or a new one sized for nd's siblings too — the nodes that,
// sweep after sweep, are built right after nd died or right before it is.
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
	for _, sib := range nd.parent.children {
		if !sib.isLeaf() {
			size = max(size, sib.n*t.rowSize(sib))
		}
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

// InvalidateAll drops every cached value: after the factor ranks or
// the tensor's values changed.
func (t *DTree) InvalidateAll() {
	for _, nd := range t.nodes {
		t.release(nd)
	}
	t.ranks = nil
}

// Flops returns the accumulated multiply-add count of all node and leaf
// computations so far: what ran (cost), not the nominal Flops.
func (t *DTree) Flops() int64 { return t.flops }

// ResetFlops zeroes the flop counter (the cache state is untouched).
func (t *DTree) ResetFlops() { t.flops = 0 }

// StreamBytes reports what the root children's index streams copy: 4
// bytes per listed nonzero and dropped mode of each root child whose
// group order is not the storage order, nothing for one whose streams
// alias the tensor.
func (t *DTree) StreamBytes() int64 {
	var total int64
	for _, c := range t.root.children {
		total += c.streamBytes
	}
	return total
}

// RunsPerNZ reports the runs of leaf n per listed nonzero where the leaf
// is a root child (every leaf of a star): about 1 on an unsorted input,
// a fraction on a sorted one; 0 for a leaf deeper in a binary tree.
func (t *DTree) RunsPerNZ(n int) float64 {
	leaf := t.leaves[n]
	return float64(leaf.runs) / float64(max(len(leaf.groups.Ids), 1))
}

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
// count of nonempty slices, or of a star's listed ones), matching
// symbolic.Mode.NumRows.
func (t *DTree) NumRows(n int) int { return t.leaves[n].n }

// Rows lists the slices of mode n in the order of Y_(n)'s rows:
// ascending, matching symbolic.Mode.Rows, unless the mode is in split
// order (SplitSingletons).
func (t *DTree) Rows(n int) []int32 {
	if sp := t.splits[n]; sp != nil {
		return sp.rows
	}
	return t.leaves[n].keys[n]
}

// TTMc computes the compacted mode-n matricized product Y_(n) into y,
// reusing every cached ancestor that is still valid and recomputing
// only invalidated ones. y must be pre-shaped NumRows(n) x RowSize(u, n);
// it is overwritten. U_n is not read and may be nil. A mode in split
// order writes its multi rows into y, which then has only those, and its
// singletons into the T its SplitSingletons rows hold, binding their U to
// the grouping factor.
func (t *DTree) TTMc(y *dense.Matrix, n int, u []*dense.Matrix, threads int) {
	t.syncRanks(u)
	leaf, sp := t.leaves[n], t.splits[n]
	rows, rowSize := leaf.n, t.rowSize(leaf)
	if sp != nil {
		rows = sp.multi
		sp.bind(u, rowSize)
	}
	if y.Rows != rows || y.Cols != rowSize {
		panic("ttm: TTMc output shape mismatch")
	}
	if leaf.parent != t.root {
		start := time.Now()
		t.ensure(leaf.parent, u, threads)
		t.nodeTime += time.Since(start)
	}
	t.contract(leaf, y.Data, u, threads)
}

// syncRanks checks the factor column counts against the cached values
// and drops every cache when they changed. A nil factor counts as rank
// 0: no node on the path to its own leaf reads it.
func (t *DTree) syncRanks(u []*dense.Matrix) {
	if len(u) != t.order {
		panic(fmt.Sprintf("ttm: DTree built for order %d, got %d factors", t.order, len(u)))
	}
	same := t.ranks != nil
	for m := 0; m < t.order && same; m++ {
		same = t.ranks[m] == cols(u[m])
	}
	if same {
		return
	}
	t.InvalidateAll()
	t.ranks = make([]int, t.order)
	for m := range t.ranks {
		t.ranks[m] = cols(u[m])
	}
}

func cols(m *dense.Matrix) int {
	if m == nil {
		return 0
	}
	return m.Cols
}

// rowSize is the dense block length of a node's entries at the ranks
// the caches were computed with.
func (t *DTree) rowSize(nd *dnode) int { return nd.blockLen(t.ranks) }

// cost is the multiply-adds of computing nd at the given ranks, and of
// one of its entries that holds one parent entry: a block update per
// parent entry for an internal step, and at a root child an update of
// the trail-rank accumulator per nonzero and a block update per run.
func (nd *dnode) cost(ranks []int) (total, single int64) {
	bs, entries := int64(nd.blockLen(ranks)), int64(len(nd.groups.Ids))
	if nd.streams == nil {
		return entries * bs, bs
	}
	acc := int64(1)
	for _, m := range nd.trail {
		acc *= int64(ranks[m])
	}
	return entries*acc + nd.runs*bs, acc + bs
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
// entry is owned by exactly one worker and accumulated in group order,
// so the result is deterministic for any thread count.
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

	// kron bounds the Kronecker products a worker builds per entry.
	kron := 1
	body := t.rootFn
	if parent == t.root {
		// Root child: the lead mode's rows end the runs, the trailing
		// modes' rows go into the accumulator (accumKron, whose prefixes
		// are shorter than it).
		c.acc = 1
		for _, m := range nd.trail {
			c.acc *= t.ranks[m]
		}
		kron = c.acc
		if len(nd.dropped) > 0 {
			c.lead = u[nd.lead]
		}
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
	t.scratch = growKronScratch(t.scratch, threads, t.order, kron, c.acc)
	runRows(nd.n, threads, t.chainsFn, body)
	*c = contraction{}
}

// splitOf is nd's split order: its mode's for a leaf in split order, nil
// for any other node.
func (t *DTree) splitOf(nd *dnode) *splitMode {
	if !nd.isLeaf() {
		return nil
	}
	return t.splits[nd.lo]
}

// callChains is the balanced partition of the running contraction.
func (t *DTree) callChains() []int32 {
	nd := t.call.nd
	return nd.chains.Partition(nd.groups.Ptr, t.call.threads)
}

var unitRow = []float64{1}

// rootRows computes entries [lo, hi) of a root child from the nonzeros:
// one pass over each group's positions, the lead and trailing indices
// read from the child's streams and each value through the group's ids.
// Eq. 4 is bilinear, so the lead is factored out of every run of
// neighbouring positions with one lead index: the run clears the
// accumulator, adds each nonzero's value times ⊗ of its trailing rows
// (accumKron) and ends in one rank-one update of the block by the lead
// row — nnz·acc + runs·block multiply-adds where nnz·block would do
// without. Runs are found by comparing neighbours, so any storage order
// is exact, an unsorted one with runs one entry long. With one trailing
// mode a nonzero's update is an axpy of its row — what accumKron's 1 x R
// Ger computes, zero skip included — so a whole entry is one
// dense.GatherGer. A leaf in split order writes its singletons compactly
// (compactRow).
func (t *DTree) rootRows(w, lo, hi int) {
	c, sc := &t.call, &t.scratch[w]
	nd, bs, u, s := c.nd, c.bs, c.u, c.nd.streams
	ptr, ids, vals := nd.groups.Ptr, nd.groups.Ids, t.x.Values()
	trail, lead, leadRow, acc := nd.trail, s[nd.lead], unitRow, sc.acc[:c.acc]
	frows := sc.rows[:len(trail)]
	var one []int32
	if len(trail) == 1 {
		one = s[trail[0]]
	}
	for g := lo; g < hi; g++ {
		r := c.row(g)
		if r >= c.multi {
			t.compactRow(w, g, r-c.multi, vals)
			continue
		}
		row := c.dst[r*bs : (r+1)*bs]
		clear(row)
		p, end := ptr[g], ptr[g+1]
		if one != nil {
			dense.GatherGer(lead[p:end], c.lead, vals, ids[p:end], one[p:end], u[trail[0]], acc, row)
			continue
		}
		for p < end {
			i := lead[p]
			clear(acc)
			for ; p < end && lead[p] == i; p++ {
				for j, m := range trail {
					frows[j] = u[m].Row(int(s[m][p]))
				}
				accumKron(acc, vals[ids[p]], frows, sc.bufA, sc.bufB)
			}
			if c.lead != nil {
				leadRow = c.lead.Row(int(i))
			}
			dense.Ger(leadRow, acc, row)
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
	pbs, vals := parent.blockSize, t.x.Values()
	frows := sc.rows[:len(nd.dropped)]
	for g := lo; g < hi; g++ {
		r := c.row(g)
		if r >= c.multi {
			t.compactRow(w, g, r-c.multi, vals)
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

// SweepFlops returns the kernel's multiply-add count of one
// steady-state HOOI sweep at the given ranks: a Gauss–Seidel sweep
// builds every node below the root exactly once, at its cost; a leaf in
// split order writes each singleton's row in RowSize/R_Group.
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
