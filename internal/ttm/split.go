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
	// A leaf below a root child whose compact row is not its parent
	// block (SplitSingletons): compact row i's nonzero has id ids[i] and
	// indices restIdx[i·len(rest):] in the rest's modes, so that a sweep
	// reads them in place of a walk up the tree and a gather from the
	// tensor's index arrays per row. The value is read through the id, so
	// a merge that changes values reaches the row.
	ids, restIdx []int32
}

// newSplit is the census rule. The kernel lists mode n's rows as the
// ascending slices and, per row, single: where the row's one nonzero
// sits in idx, or -1 for a row of more; idx holds every other mode's
// index of each nonzero (a root child's streams, by list position, or
// the tensor's arrays, by id), and dims the mode sizes.
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

// SplitRows is mode n's compact singleton rows, nil unless the mode is
// in split order.
func (t *DTree) SplitRows(n int) *dense.KronRows {
	if sp := t.splits[n]; sp != nil {
		return sp.kron
	}
	return nil
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
// they were, and so do the multi rows' bits.
//
// A row of leaf n is a singleton when its group holds one entry of its
// parent that holds one of its own, and so on up to the root child
// (singles). A root child's leaf (every leaf of a star) finds the
// nonzero's indices at its list position in its streams, and so does its
// compact row. Below one the census reads them through the nonzero's id
// in the tensor's arrays, and where a compact row is not its parent block
// (fromParent) keeps each singleton's id and rest indices in the compact
// rows' order, 4+4(N-2) bytes a singleton.
func (t *DTree) SplitSingletons(n int, ranks []int) (Census, *dense.KronRows) {
	leaf := t.leaves[n]
	single, rc := t.singles(leaf)
	idx := rc.streams
	if rc != leaf {
		idx = t.root.keys
		for r, p := range single {
			if p >= 0 {
				single[r] = rc.groups.Ids[p]
			}
		}
	}
	cen, sp := newSplit(n, ranks, t.x.Shape(), idx, leaf.keys[n], single)
	if sp != nil && rc != leaf && !t.fromParent(n, sp.group) {
		k := len(sp.rest)
		sp.ids, sp.restIdx = make([]int32, cen.Singletons), make([]int32, cen.Singletons*k)
		for r, id := range single {
			if i := int(sp.at[r]) - sp.multi; i >= 0 {
				sp.ids[i] = id
				for j, m := range sp.rest {
					sp.restIdx[i*k+j] = t.root.keys[m][id]
				}
			}
		}
	}
	t.splits[n] = sp
	return cen, t.SplitRows(n)
}

// fromParent reports whether a singleton row of leaf n grouped by g is
// its one parent entry's block: where the parent is a root child that
// drops two modes, whose block of a one-nonzero entry is
// a[i]·(x·b[j]) over the rows a and b of the modes it drops
// (dense.GatherGer; scaleKron's bits), and g is the leaf's one sibling,
// so that those modes are exactly the rest. Copying that block reads no
// factor row: on delicious4's mode 1 the rest's rows are those of its
// two largest modes, read at random.
func (t *DTree) fromParent(n, g int) bool {
	p := t.leaves[n].parent
	return p.parent == t.root && len(p.dropped) == 2 && len(p.children) == 2 && t.leaves[g].parent == p
}

// singles is, per entry of leaf, the list position in the order of its
// root child rc of the entry's one nonzero, -1 where it holds more: the
// entry's group holds one parent entry, that entry's one of its own, and
// so on up to the root child. It walks a level at a time, without a
// branch on the group length (on a star the root child is the leaf, and
// singletons and longer rows alternate at random).
func (t *DTree) singles(leaf *dnode) (s []int32, rc *dnode) {
	s, ptr := make([]int32, leaf.n), leaf.groups.Ptr
	for r := range s {
		p := ptr[r]
		s[r] = p | int32(one(ptr[r+1]-p)-1)
	}
	for rc = leaf; rc.parent != t.root; rc = rc.parent {
		ids, ptr := rc.groups.Ids, rc.parent.groups.Ptr
		for r, p := range s {
			if p >= 0 {
				e := ids[p]
				q := ptr[e]
				s[r] = q | int32(one(ptr[e+1]-q)-1)
			}
		}
	}
	return s, rc
}

// one is 1 for a group of one entry and 0 for a longer one, without a
// branch (no group is empty).
func one(length int32) int { return int(uint32(length-2) >> 31) }

// row is where entry g goes: its block of dst, or row row(g)-multi of T
// from multi on.
func (c *contraction) row(g int) int {
	if c.at == nil {
		return g
	}
	return int(c.at[g])
}

// compactRow writes singleton entry g of the running leaf contraction
// into row i of T: its nonzero's value (in vals, the tensor's) times ⊗ of its rows of the rest's
// factors (scaleKron), the indices read from a root child's streams or
// those the census stored for row i, or a copy of its parent block where
// that is the row (fromParent).
func (t *DTree) compactRow(w, g, i int, vals []float64) {
	c, nd := &t.call, t.call.nd
	sp := c.sp
	row := sp.kron.T.Row(i)
	rest := t.scratch[w].rows[:len(sp.rest)]
	switch {
	case nd.streams != nil:
		p := nd.groups.Ptr[g]
		for j, m := range sp.rest {
			rest[j] = c.u[m].Row(int(nd.streams[m][p]))
		}
		scaleKron(row, vals[nd.groups.Ids[p]], rest)
	case sp.restIdx == nil:
		e, pbs := int(nd.groups.Ids[nd.groups.Ptr[g]]), nd.parent.blockSize
		copy(row, nd.parent.val[e*pbs:(e+1)*pbs])
	default:
		k := len(rest)
		for j, m := range sp.rest {
			rest[j] = c.u[m].Row(int(sp.restIdx[i*k+j]))
		}
		scaleKron(row, vals[sp.ids[i]], rest)
	}
}

// scaleKron writes x·(rows[0] ⊗ rows[1] ⊗ …) into dst, the last row
// fastest: x scales the last row first, and the product of the other
// rows, multiplied left to right, then scales that: entry (i, j) of two
// rows is rows[0][i]·(x·rows[1][j]), the bits of a run loop's run of one
// nonzero (dense.GatherGer). dst must hold the product of the row
// lengths; no rows give x.
func scaleKron(dst []float64, x float64, rows [][]float64) {
	switch len(rows) {
	case 0:
		dst[0] = x
		return
	case 1:
		// 1·(x·r[q]) is x·r[q]: order 3 writes a singleton a row at a time.
		for q, f := range rows[0] {
			dst[q] = x * f
		}
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
