package ttm

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"hypertensor/internal/dense"
	"hypertensor/internal/symbolic"
	"hypertensor/internal/tensor"
)

// splitKernel is what Flat and DTree both offer a mode in split order.
type splitKernel interface {
	SplitSingletons(n int, ranks []int) (Census, *dense.KronRows)
	Rows(n int) []int32
	TTMc(y *dense.Matrix, n int, u []*dense.Matrix, threads int)
	Flops() int64
	SweepFlops(ranks []int) int64
}

// singletonSetup is randomSetup with one nonzero per mode-0 index, so
// every row of mode 0 is a singleton.
func singletonSetup(rng *rand.Rand, dims, ranks []int) (*tensor.COO, []*dense.Matrix, *symbolic.Structure) {
	x := tensor.NewCOO(dims, dims[0])
	coord := make([]int, len(dims))
	for i := range dims[0] {
		coord[0] = i
		for m := 1; m < len(dims); m++ {
			coord[m] = rng.Intn(dims[m])
		}
		x.Append(coord, rng.NormFloat64())
	}
	x.SortDedup()
	u := make([]*dense.Matrix, len(dims))
	for m := range u {
		u[m] = dense.RandomNormal(dims[m], ranks[m], rng)
	}
	return x, u, symbolic.Build(x, 1)
}

// compactRef is nonzero id's compact row, computed entry by entry: its
// value times its rows of the factors of rest (ascending, the last
// fastest), multiplied left to right.
func compactRef(x *tensor.COO, id int32, u []*dense.Matrix, rest []int) []float64 {
	size := 1
	for _, t := range rest {
		size *= u[t].Cols
	}
	out := make([]float64, size)
	digits := make([]int, len(rest))
	for k := range out {
		rem := k
		for j := len(rest) - 1; j >= 0; j-- {
			digits[j], rem = rem%u[rest[j]].Cols, rem/u[rest[j]].Cols
		}
		v := x.Val[id]
		for j, t := range rest {
			v *= u[t].At(int(x.Idx[t][id]), digits[j])
		}
		out[k] = v
	}
	return out
}

// A mode in split order lists its rows of more than one nonzero first,
// ascending, then its singletons grouped by their index in the census's
// mode — of the first and the last other mode, the one with fewer
// indices — groups and rows ascending. The flat kernel and the tree take
// the same census and put the mode in the same order, at every order:
// the cases cover the group as the slow index and as the fast one, the
// tree's leaf sibling and a mode that is not, a leaf below a root child
// and one deeper (order 5), every row a singleton and none. Both kernels
// write every multi row with the bits it has in ascending order and
// every singleton compactly, bitwise its value times ⊗ of its rows of
// the other factors, at any thread count; the rows they write, expanded,
// are the ascending rows to rounding; the madds counted are SweepFlops';
// and the split Gram over the tree's product is the plain SYRK's to
// rounding on every kernel path, bitwise the same at any thread count. A
// mode whose split is not taken keeps its order and its full-width rows.
func TestSplitSingletons(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for _, tc := range []struct {
		name        string
		dims, ranks []int
		nnz         int // 0: singletonSetup
		taken       []bool
	}{
		{"order 3", []int{400, 6, 150}, []int{4, 3, 5}, 500, []bool{true, false, true}},
		{"order 2", []int{300, 40}, []int{5, 4}, 350, []bool{true, false}},
		{"order 3, no singleton", []int{12, 10, 8}, []int{3, 3, 3}, 900, []bool{false, false, false}},
		// Mode 1 groups by mode 0, its leaf's sibling: slow, the parent's block.
		{"order 4, slow sibling", []int{8, 2000, 50, 40}, []int{2, 3, 2, 3}, 2200, []bool{false, true, false, false}},
		// Mode 0 groups by mode 3, the last and not its sibling: fast.
		{"order 4, fast", []int{2000, 50, 40, 6}, []int{3, 2, 3, 2}, 2200, []bool{true, false, false, false}},
		// Mode 3 groups by mode 0: slow, not its sibling.
		{"order 4, slow", []int{6, 40, 50, 2000}, []int{2, 3, 2, 3}, 2200, []bool{false, false, false, true}},
		// Mode 3 groups by mode 2, its sibling: fast, the parent's block.
		{"order 4, fast sibling", []int{40, 50, 3, 2000}, []int{2, 3, 2, 3}, 2200, []bool{false, false, false, true}},
		{"order 4, every row a singleton", []int{600, 7, 8, 9}, []int{2, 3, 3, 3}, 0, []bool{true, false, false, false}},
		{"order 4, no singleton", []int{12, 10, 8, 6}, []int{2, 2, 3, 2}, 3000, []bool{false, false, false, false}},
		// Mode 0's leaf is below an inner node; it groups by mode 4, fast.
		{"order 5", []int{3000, 6, 5, 7, 4}, []int{2, 2, 3, 2, 2}, 3500, []bool{true, false, false, false, false}},
		// Mode 3 groups by mode 4, its sibling below a root child that drops three modes.
		{"order 5, fast sibling", []int{4, 5, 6, 3000, 3}, []int{2, 2, 2, 3, 2}, 3500, []bool{false, false, false, true, false}},
	} {
		var x *tensor.COO
		var u []*dense.Matrix
		var sym *symbolic.Structure
		if tc.nnz > 0 {
			x, u, sym = randomSetup(rng, tc.dims, tc.ranks, tc.nnz)
		} else {
			x, u, sym = singletonSetup(rng, tc.dims, tc.ranks)
		}
		flat, tree := NewFlat(x, sym), BuildDTree(x, 1)
		plainFlat, plainTree := NewFlat(x, sym), BuildDTree(x, 1)
		anyTaken := false
		for n := range tc.dims {
			sm := &sym.Modes[n]
			cen, kr := flat.SplitSingletons(n, tc.ranks)
			if cen.Taken() != tc.taken[n] || (kr != nil) != cen.Taken() {
				t.Fatalf("%s mode %d: census %+v, rows returned %v; want taken %v", tc.name, n, cen, kr != nil, tc.taken[n])
			}
			anyTaken = anyTaken || cen.Taken()

			// The census, recounted.
			var others []int
			for m := range tc.dims {
				if m != n {
					others = append(others, m)
				}
			}
			singles, group, groups := 0, -1, 0
			for _, m := range []int{others[0], others[len(others)-1]} {
				seen := map[int32]bool{}
				for r := range sm.Rows {
					if nz := sm.RowNZ(r); len(nz) == 1 {
						seen[x.Idx[m][nz[0]]] = true
					}
				}
				if group < 0 || len(seen) < groups {
					group, groups = m, len(seen)
				}
			}
			for r := range sm.Rows {
				if len(sm.RowNZ(r)) == 1 {
					singles++
				}
			}
			if singles == 0 {
				group, groups = -1, 0
			}
			cols := RowSize(u, n)
			if cen.Singletons != singles || cen.Group != group || cen.Groups != groups || cen.Plain != dense.SyrkMadds(sm.NumRows(), cols) {
				t.Fatalf("%s mode %d: census %+v, recount %d singletons, group %d of %d indices", tc.name, n, cen, singles, group, groups)
			}
			if tc.nnz == 0 && n == 0 && singles != sm.NumRows() {
				t.Fatalf("%s: %d of mode 0's %d rows are singletons", tc.name, singles, sm.NumRows())
			}

			// The tree's census and order are the flat kernel's.
			tcen, tkr := tree.SplitSingletons(n, tc.ranks)
			if tcen != cen || (tkr != nil) != (kr != nil) || !slices.Equal(tree.Rows(n), flat.Rows(n)) {
				t.Fatalf("%s mode %d: the tree's census %+v and rows differ from the flat kernel's %+v", tc.name, n, tcen, cen)
			}
			if kr != nil && (!slices.Equal(tkr.Idx, kr.Idx) || !slices.Equal(tkr.Ptr, kr.Ptr) || tkr.Slow != kr.Slow) {
				t.Fatalf("%s mode %d: the tree's groups differ from the flat kernel's", tc.name, n)
			}

			if kr == nil {
				if !slices.Equal(flat.Rows(n), sm.Rows) {
					t.Fatalf("%s mode %d: the split is not taken, yet the rows moved", tc.name, n)
				}
				for _, k := range []struct{ split, plain splitKernel }{{flat, plainFlat}, {tree, plainTree}} {
					want, got := dense.NewMatrix(sm.NumRows(), cols), dense.NewMatrix(sm.NumRows(), cols)
					k.plain.TTMc(want, n, u, 1)
					k.split.TTMc(got, n, u, 3)
					if !slices.Equal(got.Data, want.Data) {
						t.Fatalf("%s mode %d: the split is not taken, yet the rows changed", tc.name, n)
					}
				}
				continue
			}

			// The order, and the groups it describes.
			rows, multi := flat.Rows(n), sm.NumRows()-singles
			if kr.Rows() != singles {
				t.Fatalf("%s mode %d: %d rows grouped, want %d", tc.name, n, kr.Rows(), singles)
			}
			if !slices.IsSorted(rows[:multi]) || !slices.IsSorted(kr.Idx) || len(slices.Compact(slices.Clone(kr.Idx))) != groups {
				t.Fatalf("%s mode %d: multi rows or group indices out of order", tc.name, n)
			}
			for j, i := range kr.Idx {
				grp := rows[multi+int(kr.Ptr[j]) : multi+int(kr.Ptr[j+1])]
				if len(grp) == 0 || !slices.IsSorted(grp) {
					t.Fatalf("%s mode %d: group %d is empty or out of order", tc.name, n, j)
				}
				for _, slice := range grp {
					nz := sm.RowNZ(int(sm.Pos[slice]))
					if len(nz) != 1 || x.Idx[group][nz[0]] != i {
						t.Fatalf("%s mode %d: slice %d is in group %d (index %d) but holds %d nonzeros", tc.name, n, slice, j, i, len(nz))
					}
				}
			}
			for _, slice := range rows[:multi] {
				if len(sm.RowNZ(int(sm.Pos[slice]))) < 2 {
					t.Fatalf("%s mode %d: singleton slice %d among the multi rows", tc.name, n, slice)
				}
			}
			if kr.Slow != (group == others[0]) {
				t.Fatalf("%s mode %d: Slow %v with group %d, first other mode %d", tc.name, n, kr.Slow, group, others[0])
			}
			var rest []int
			for _, m := range others {
				if m != group {
					rest = append(rest, m)
				}
			}

			// The rows: the multi rows' bits, each compact row its value
			// times ⊗ of its other factor rows, and all of them expanded the
			// ascending rows to rounding.
			for _, k := range []struct {
				name         string
				split, plain splitKernel
				kr           *dense.KronRows
			}{{"flat", flat, plainFlat, kr}, {"tree", tree, plainTree, tkr}} {
				want := dense.NewMatrix(sm.NumRows(), cols)
				k.plain.TTMc(want, n, u, 1)
				for _, threads := range []int{1, 3} {
					y := dense.NewMatrix(multi, cols)
					k.kr.T = *dense.NewMatrix(singles, cols/tc.ranks[group])
					k.split.TTMc(y, n, u, threads)
					for i, slice := range rows {
						r := int(sm.Pos[slice])
						if i >= multi {
							ref := compactRef(x, sm.RowNZ(r)[0], u, rest)
							for j, v := range k.kr.T.Row(i - multi) {
								if math.Float64bits(v) != math.Float64bits(ref[j]) {
									t.Fatalf("%s mode %d %s threads %d: compact row %d (slice %d) holds %v at %d, its value times its factor rows %v", tc.name, n, k.name, threads, i-multi, slice, v, j, ref[j])
								}
							}
							continue
						}
						if !slices.Equal(y.Row(i), want.Row(r)) {
							t.Fatalf("%s mode %d %s threads %d: row %d (slice %d) is not its ascending row", tc.name, n, k.name, threads, i, slice)
						}
					}
					full := k.kr.Materialize(y)
					for i, slice := range rows {
						for j, v := range full.Row(i) {
							w := want.At(int(sm.Pos[slice]), j)
							if math.Abs(v-w) > 1e-15*math.Abs(w) {
								t.Fatalf("%s mode %d %s threads %d: row %d (slice %d) expands to %v at %d, the ascending row holds %v", tc.name, n, k.name, threads, i, slice, v, j, w)
							}
						}
					}
					if k.name == "tree" && threads == 1 {
						splitGramOnEveryPath(t, tc.name, n, y, k.kr, full)
					}
				}
			}
		}

		// A sweep counts what SweepFlops predicts, less than the plain
		// kernel's where a mode is split.
		for _, k := range []struct {
			name         string
			split, plain splitKernel
			splits       splits
		}{{"flat", flat, plainFlat, flat.splits}, {"tree", tree, plainTree, tree.splits}} {
			tree, _ := k.split.(*DTree)
			if tree != nil {
				tree.InvalidateAll() // every node is built once in the sweep
			}
			f0 := k.split.Flops()
			for n := range tc.dims {
				y := dense.NewMatrix(len(k.split.Rows(n)), RowSize(u, n))
				if sp := k.splits.of(n); sp != nil {
					y.Rows, y.Data = sp.multi, y.Data[:sp.multi*y.Cols]
					sp.kron.T = *dense.NewMatrix(sp.kron.Rows(), y.Cols/tc.ranks[sp.group])
				}
				if tree != nil {
					tree.Invalidate(n)
				}
				k.split.TTMc(y, n, u, 2)
			}
			if got, want := k.split.Flops()-f0, k.split.SweepFlops(tc.ranks); got != want || (got < k.plain.SweepFlops(tc.ranks)) != anyTaken {
				t.Fatalf("%s %s: a sweep counted %d madds, SweepFlops %d, the plain kernel's %d", tc.name, k.name, got, want, k.plain.SweepFlops(tc.ranks))
			}
		}
	}
}

// splitGramOnEveryPath holds the split Gram over y and kr to the plain
// SYRK of full, the matrix they describe, within 1e-13 of its largest
// entry on every kernel path, and bitwise the same at 1, 2, 3 and 8
// threads.
func splitGramOnEveryPath(t *testing.T, name string, n int, y *dense.Matrix, kr *dense.KronRows, full *dense.Matrix) {
	t.Helper()
	cols := y.Cols
	for _, path := range dense.KernelPaths() {
		func() {
			defer dense.UseKernelPath(path)()
			g := dense.NewMatrix(cols, cols)
			dense.SyrkInto(g, full, nil, 2)
			var first *dense.Matrix
			for _, threads := range []int{1, 2, 3, 8} {
				gk := dense.NewMatrix(cols, cols)
				dense.SyrkKronInto(gk, y, kr, nil, threads)
				if first != nil {
					if !slices.Equal(gk.Data, first.Data) {
						t.Fatalf("%s mode %d path %s: the split Gram at %d threads differs from one thread's", name, n, path, threads)
					}
					continue
				}
				first = gk
				var scale, diff float64
				for i, v := range g.Data {
					scale, diff = max(scale, math.Abs(v)), max(diff, math.Abs(gk.Data[i]-v))
				}
				if diff > 1e-13*scale {
					t.Fatalf("%s mode %d path %s: split Gram off the SYRK by %g of its largest entry", name, n, path, diff/scale)
				}
			}
		}()
	}
}
