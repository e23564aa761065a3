package ttm

import (
	"math/bits"

	"hypertensor/internal/dense"
)

// Census is a mode's count of its singleton rows — the rows of Y_(n)
// that one nonzero x at (a, b) builds, each x·(U_a(a,:) ⊗ U_b(b,:)) — and
// what they predict for the Gram product G = Y_(n)ᵀY_(n).
type Census struct {
	// Singletons counts the rows whose update list holds one nonzero.
	Singletons int
	// Group is the other mode with the fewest distinct indices among the
	// singletons (the lower mode on a tie), -1 where there are none, and
	// Groups counts those indices.
	Group, Groups int
	// Plain and Split are the predicted multiply-adds of one Gram
	// product: dense.SyrkMadds over every row, and dense.SyrkKronMadds
	// with the singletons grouped by their index in Group.
	Plain, Split int64
}

// Taken reports whether the split Gram is predicted to cost less.
func (c Census) Taken() bool { return c.Group >= 0 && c.Split < c.Plain }

// SplitSingletons takes mode n's census at the given ranks and, where
// the split Gram is predicted to cost less, puts the mode in split
// order: the rows of more than one nonzero first, ascending, then the
// singletons grouped by their index in Group, groups and the rows within
// each ascending. Rows(n) then lists the slices in that order, and TTMc
// writes the multi rows to y at full width and each singleton compactly
// into the returned rows' T: the nonzero's value times its row of the
// factor that is neither n's nor Group's, c = RowSize/R_Group entries
// (just the value on order 2). It returns the groups as the split
// matrix's rows (dense.KronRows), T left for the caller to bind to
// T.Rows x c storage before each TTMc, which binds U, or nil where the
// split is not taken. Only an order-3 or order-2 tensor has one: there a
// singleton row is a Kronecker product of the grouping factor's row and
// one other, in the layout of the row's columns (Group is the slow index
// when it is the lead mode). The update lists and their order stay as
// they were, and so do the multi rows' bits. The census reads the mode's
// index streams once, in passes without a data-dependent branch, and
// allocates O(rows + the other modes' sizes / 64) words, nothing sized
// by a row's length.
func (k *Flat) SplitSingletons(n int, ranks []int) (Census, *dense.KronRows) {
	sm := &k.sym.Modes[n]
	ptr, rows, cols := sm.Ptr, sm.NumRows(), 1
	var others []int
	for t, r := range ranks {
		if t != n {
			cols *= r
			others = append(others, t)
		}
	}
	cen := Census{Group: -1, Plain: dense.SyrkMadds(rows, cols)}
	cen.Split = cen.Plain
	if len(others) < 1 || len(others) > 2 {
		return cen, nil
	}

	// The singletons' rows and their indices in the other modes, read
	// from the streams: every row is written at the cursor, which only a
	// singleton advances, and a longer list reads its modes' first
	// entries, which stay in cache, rather than its own.
	idx := sm.Streams(k.x)
	first, last := idx[others[0]], idx[others[len(others)-1]]
	singles, keys := make([]int32, rows+1), [2][]int32{make([]int32, rows+1), make([]int32, rows+1)}
	s := 0
	for r := range rows {
		p := ptr[r]
		single := one(ptr[r+1] - p)
		p *= int32(single)
		singles[s], keys[0][s], keys[1][s] = int32(r), first[p], last[p]
		s += single
	}
	cen.Singletons, singles = s, singles[:s]
	if s == 0 {
		return cen, nil
	}
	var seen, gid []int32
	var set []uint64
	for o, t := range others {
		bitsOf := make([]uint64, (k.x.Dims[t]+63)/64)
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
	seen = make([]int32, len(set))
	var sum int32
	for w, word := range set {
		seen[w] = sum
		sum += int32(bits.OnesCount64(word))
	}
	kr := &dense.KronRows{
		Ptr:  make([]int32, cen.Groups+1),
		Idx:  make([]int32, cen.Groups),
		Slow: g == leadMode(len(ranks), n),
	}
	for q, i := range gid {
		j := seen[i>>6] + int32(bits.OnesCount64(set[i>>6]&(uint64(1)<<(i&63)-1)))
		kr.Idx[j], gid[q] = i, j
		kr.Ptr[j+1]++
	}
	sp := &splitMode{multi: rows - s, group: g, other: -1, kron: kr}
	for _, t := range others {
		if t != g {
			sp.other = t
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
	for r := range rows {
		at[r], order[multi] = multi, sm.Rows[r]
		multi += 1 - int32(one(ptr[r+1]-ptr[r]))
	}
	for q, r := range singles {
		j := gid[q]
		at[r], order[next[j]] = next[j], sm.Rows[r]
		next[j]++
	}
	sp.rows, sp.at = order, at
	if k.split == nil {
		k.split = make([]*splitMode, len(k.sym.Modes))
	}
	k.split[n] = sp
	return cen, kr
}

// splitMode is a mode in split order (SplitSingletons).
type splitMode struct {
	// rows lists the slices in Y_(n)'s row order, and at[r] is where list
	// row r goes: row at[r] of y below multi, row at[r]-multi of kron.T
	// from multi on.
	rows, at []int32
	multi    int
	// group is the grouping mode and other the contracted mode whose
	// factor row a singleton's compact row scales (-1 on order 2).
	group, other int
	kron         *dense.KronRows
}

// one is 1 for an update list of one nonzero and 0 for a longer one,
// without a branch (no list is empty).
func one(length int32) int { return int(uint32(length-2) >> 31) }
