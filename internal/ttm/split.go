package ttm

import (
	"math/bits"

	"hypertensor/internal/dense"
)

// Census is a mode's count of its singleton rows — the rows of Y_(n)
// that one nonzero x builds, each x·⊗_{t≠n} U_t(i_t, :) — and what they
// predict for the Gram product G = Y_(n)ᵀY_(n).
type Census struct {
	// Singletons counts the rows whose update list holds one nonzero.
	Singletons int
	// Group is the grouping mode: of the first and the last mode other
	// than n, the one with fewer distinct indices among the singletons
	// (the first on a tie), -1 where there are none; Groups counts those
	// indices.
	Group, Groups int
	// Plain and Split are the predicted multiply-adds of one Gram
	// product: dense.SyrkMadds over every row, and dense.SyrkKronMadds
	// with the singletons grouped by their index in Group.
	Plain, Split int64
}

// Taken reports whether the split Gram is predicted to cost less.
func (c Census) Taken() bool { return c.Group >= 0 && c.Split < c.Plain }

// splitMode is a mode in split order (newSplit).
type splitMode struct {
	// rows lists the slices in Y_(n)'s row order, and at[r] is where
	// kernel row r goes: row at[r] of y below multi, row at[r]-multi of
	// kron.T from multi on.
	rows, at []int32
	multi    int
	// group is the grouping mode and rest the other contracted modes,
	// ascending: a singleton's compact row is its value times the
	// Kronecker product of their factor rows (scaleKron).
	group int
	rest  []int
	kron  *dense.KronRows
	// The tree's, where a compact row is not its parent block
	// (DTree.SplitSingletons): compact row i's nonzero has value vals[i]
	// and indices restIdx[i·len(rest):] in the rest's modes, so that a
	// sweep reads them in place of a walk up the tree and a gather from
	// the tensor per row.
	vals    []float64
	restIdx []int32
}

// newSplit is the census rule of both kernels. A kernel lists mode n's
// rows as the ascending slices and, per row, single: where the row's one
// nonzero sits in idx, or -1 for a row of more; idx holds every other
// mode's index of each nonzero (the tensor's arrays, addressed by id, or
// the flat kernel's streams, by list position), and dims the mode sizes.
// newSplit counts the singletons, chooses the grouping mode among the
// first and the last of the other modes — only with those is a singleton
// row u_g ⊗ t (g the slow index) or t ⊗ u_g in Y's column layout — and
// predicts both Gram products at the given ranks. Where the split costs
// less it returns the mode's split order: the rows of more than one
// nonzero first, ascending, then the singletons grouped by their index
// in Group, groups and the rows within each ascending, with the groups
// as the split matrix's rows (dense.KronRows; T and U left for the
// kernel to bind). It allocates O(rows + the two candidate modes' sizes
// / 64) words.
func newSplit(n int, ranks, dims []int, idx [][]int32, slices, single []int32) (Census, *splitMode) {
	rows, cols := len(slices), 1
	var others []int
	for t, r := range ranks {
		if t != n {
			cols *= r
			others = append(others, t)
		}
	}
	cen := Census{Group: -1, Plain: dense.SyrkMadds(rows, cols)}
	cen.Split = cen.Plain
	if len(others) == 0 {
		return cen, nil
	}

	// The singletons' rows and their indices in the two candidate modes:
	// every row is written at the cursor, which only a singleton
	// advances, and a longer row reads nonzero 0's.
	candidates := []int{others[0], others[len(others)-1]}
	singles := make([]int32, rows+1)
	keys := [2][]int32{make([]int32, rows+1), make([]int32, rows+1)}
	s := 0
	for r, id := range single {
		more := id >> 31 // -1 for a row of more than one nonzero, 0 for a singleton
		id &^= more
		singles[s], keys[0][s], keys[1][s] = int32(r), idx[candidates[0]][id], idx[candidates[1]][id]
		s += int(1 + more)
	}
	cen.Singletons, singles = s, singles[:s]
	if s == 0 {
		return cen, nil
	}
	var gid []int32
	var set []uint64
	for o, t := range candidates {
		bitsOf := make([]uint64, (dims[t]+63)/64)
		for _, i := range keys[o][:s] {
			bitsOf[i>>6] |= uint64(1) << (i & 63)
		}
		distinct := 0
		for _, w := range bitsOf {
			distinct += bits.OnesCount64(w)
		}
		if cen.Group < 0 || distinct < cen.Groups {
			cen.Group, cen.Groups, set, gid = t, distinct, bitsOf, keys[o][:s]
		}
	}
	g := cen.Group
	cen.Split = dense.SyrkKronMadds(rows-s, s, cen.Groups, cols, ranks[g])
	if !cen.Taken() {
		return cen, nil
	}

	// An index's group is its rank among the indices seen; gid takes the
	// singletons' groups in place of their indices.
	seen := make([]int32, len(set))
	var sum int32
	for w, word := range set {
		seen[w] = sum
		sum += int32(bits.OnesCount64(word))
	}
	kr := &dense.KronRows{
		Ptr:  make([]int32, cen.Groups+1),
		Idx:  make([]int32, cen.Groups),
		Slow: g == others[0],
	}
	for q, i := range gid {
		j := seen[i>>6] + int32(bits.OnesCount64(set[i>>6]&(uint64(1)<<(i&63)-1)))
		kr.Idx[j], gid[q] = i, j
		kr.Ptr[j+1]++
	}
	sp := &splitMode{multi: rows - s, group: g, kron: kr}
	for _, t := range others {
		if t != g {
			sp.rest = append(sp.rest, t)
		}
	}
	next := make([]int32, cen.Groups)
	for j := range next {
		kr.Ptr[j+1] += kr.Ptr[j]
		next[j] = int32(sp.multi) + kr.Ptr[j]
	}
	// The multi rows take their places in order; what a singleton writes
	// on the way is overwritten when the singletons take theirs.
	at, order, multi := make([]int32, rows), make([]int32, rows), int32(0)
	for r, id := range single {
		at[r], order[multi] = multi, slices[r]
		multi -= id >> 31
	}
	for q, r := range singles {
		j := gid[q]
		at[r], order[next[j]] = next[j], slices[r]
		next[j]++
	}
	sp.rows, sp.at = order, at
	return cen, sp
}

// bind checks that the mode's compact rows are bound to storage of the
// singletons' count by c = rowSize/R_Group and binds their U to the
// grouping factor, as a TTMc does before writing them.
func (sp *splitMode) bind(u []*dense.Matrix, rowSize int) {
	if t := &sp.kron.T; t.Rows != sp.kron.Rows() || t.Cols != rowSize/u[sp.group].Cols {
		panic("ttm: TTMc compact row shape mismatch")
	}
	sp.kron.U = u[sp.group]
}

// splits holds a kernel's modes in split order, nil for a mode in its
// ascending order (and while no mode is split).
type splits []*splitMode

// of is mode n's split order, nil where it has none.
func (s splits) of(n int) *splitMode {
	if s == nil {
		return nil
	}
	return s[n]
}

// SplitRows is mode n's compact singleton rows, nil unless the mode is
// in split order.
func (s splits) SplitRows(n int) *dense.KronRows {
	if sp := s.of(n); sp != nil {
		return sp.kron
	}
	return nil
}

// take records mode n's census outcome, sp or nil where the split is not
// taken, and returns what SplitSingletons returns.
func (s *splits) take(n, order int, cen Census, sp *splitMode) (Census, *dense.KronRows) {
	if sp != nil && *s == nil {
		*s = make(splits, order)
	}
	if *s != nil {
		(*s)[n] = sp
	}
	return cen, s.SplitRows(n)
}

// SplitSingletons takes mode n's census at the given ranks (newSplit)
// and, where the split Gram is predicted to cost less, puts the mode in
// split order: Rows(n) then lists the slices in that order, and TTMc
// writes the multi rows to y at full width and each singleton compactly
// into the returned rows' T, its value times ⊗ of its rows of the
// factors that are neither n's nor Group's, c = RowSize/R_Group entries
// (scaleKron; just the value on order 2). T is left for the caller to
// bind to T.Rows x c storage before each TTMc, which binds U; nil rows
// where the split is not taken. The update lists and their order stay as
// they were, and so do the multi rows' bits. The census reads the mode's
// index streams, in list order.
func (k *Flat) SplitSingletons(n int, ranks []int) (Census, *dense.KronRows) {
	sm := &k.modes[n]
	single := make([]int32, sm.NumRows())
	for r := range single {
		p := sm.Ptr[r]
		single[r] = p | int32(one(sm.Ptr[r+1]-p)-1)
	}
	cen, sp := newSplit(n, ranks, k.x.Dims, sm.Streams(k.x), sm.Rows, single)
	return k.splits.take(n, len(ranks), cen, sp)
}

// SplitSingletons is Flat.SplitSingletons on the tree: a row of leaf n
// is a singleton when its group holds one entry of its parent that holds
// one of its own, and so on up to the root child, whose entry's one
// group id is the nonzero's. The tree then writes the mode's rows in the
// flat kernel's split order, with the same bits. Where a compact row is
// not its parent block (fromParent), the census keeps each singleton's
// value and rest indices in the compact rows' order, 8+4(N-2) bytes a
// singleton.
func (t *DTree) SplitSingletons(n int, ranks []int) (Census, *dense.KronRows) {
	leaf := t.leaves[n]
	single := make([]int32, leaf.n)
	for r := range single {
		single[r] = t.singleID(leaf, int32(r))
	}
	cen, sp := newSplit(n, ranks, t.x.Shape(), t.root.keys, leaf.keys[n], single)
	if sp != nil && !t.fromParent(n, sp.group) {
		k, vals := len(sp.rest), t.x.Values()
		sp.vals, sp.restIdx = make([]float64, cen.Singletons), make([]int32, cen.Singletons*k)
		for r, id := range single {
			if i := int(sp.at[r]) - sp.multi; i >= 0 {
				sp.vals[i] = vals[id]
				for j, m := range sp.rest {
					sp.restIdx[i*k+j] = t.root.keys[m][id]
				}
			}
		}
	}
	return t.splits.take(n, t.order, cen, sp)
}

// fromParent reports whether a singleton row of leaf n grouped by g is
// its one parent entry's block: where the parent is a root child that
// drops two modes, whose block of a one-nonzero entry is the run loop's
// a[i]·(x·b[j]) over the rows a and b of the modes it drops (scaleKron's
// bits), and g is the leaf's sibling, so that those modes are exactly the
// rest. Copying that block reads no factor row: on delicious4's mode 1
// the rest's rows are those of its two largest modes, read at random.
func (t *DTree) fromParent(n, g int) bool {
	leaf := t.leaves[n]
	sib := leaf.parent.left
	if sib == leaf {
		sib = leaf.parent.right
	}
	return leaf.parent.runLoop() && sib.isLeaf() && sib.lo == g
}

// singleID is the id of the one nonzero under entry e of nd, -1 where
// there is more than one: the entry's group holds one parent entry, that
// entry's one of its own, and so on up to the root child.
func (t *DTree) singleID(nd *dnode, e int32) int32 {
	for ; nd != t.root; nd = nd.parent {
		p := nd.groups.Ptr[e]
		if nd.groups.Ptr[e+1]-p != 1 {
			return -1
		}
		e = nd.groups.Ids[p]
	}
	return e
}

// row is where entry g goes: its block of dst, or row row(g)-multi of T
// from multi on.
func (c *contraction) row(g int) int {
	if c.at == nil {
		return g
	}
	return int(c.at[g])
}

// compactRow writes singleton entry g of the running leaf contraction
// into row i of T: a copy of its parent block where that is the row
// (fromParent), otherwise its nonzero's value times ⊗ of its rows of the
// rest's factors (scaleKron), read from the values and indices the
// census stored for row i.
func (t *DTree) compactRow(w, g, i int) {
	c, nd := &t.call, t.call.nd
	sp := c.sp
	row := sp.kron.T.Row(i)
	if sp.restIdx == nil {
		e, pbs := int(nd.groups.Ids[nd.groups.Ptr[g]]), nd.parent.blockSize
		copy(row, nd.parent.val[e*pbs:(e+1)*pbs])
		return
	}
	k := len(sp.rest)
	rest, idx := t.scratch[w].rows[:k], sp.restIdx[i*k:(i+1)*k]
	for j, m := range sp.rest {
		rest[j] = c.u[m].Row(int(idx[j]))
	}
	scaleKron(row, sp.vals[i], rest)
}

// scaleKron writes x·(rows[0] ⊗ rows[1] ⊗ …) into dst, the last row
// fastest: x scales the last row first, and the product of the other
// rows, multiplied left to right, then scales that: entry (i, j) of two
// rows is rows[0][i]·(x·rows[1][j]), the bits of a run loop's run of one
// nonzero (dense.GatherGer). dst must hold the product of the row
// lengths; no rows give x.
func scaleKron(dst []float64, x float64, rows [][]float64) {
	if len(rows) == 0 {
		dst[0] = x
		return
	}
	dst[0] = 1
	cur := 1
	for j, r := range rows {
		s := 1.0
		if j == len(rows)-1 {
			s = x
		}
		// Expand dst[:cur] by s·r in place, walking backwards so sources
		// are not overwritten before they are read.
		for p := cur - 1; p >= 0; p-- {
			v := dst[p]
			base := p * len(r)
			for q := len(r) - 1; q >= 0; q-- {
				dst[base+q] = v * (s * r[q])
			}
		}
		cur *= len(r)
	}
}

// one is 1 for an update list of one nonzero and 0 for a longer one,
// without a branch (no list is empty).
func one(length int32) int { return int(uint32(length-2) >> 31) }
