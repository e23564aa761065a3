package ttm

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"hypertensor/internal/dense"
)

// A mode in split order lists its rows of more than one nonzero first,
// ascending, then its singletons grouped by their index in the census's
// mode, groups and rows ascending; TTMc writes every slice's row with
// the bits it has in list order, at any thread count; the census counts
// what a recount over the lists finds; and the split Gram over the
// product is the plain one's to rounding. A mode whose split is not
// taken keeps its order.
func TestSplitSingletons(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for _, tc := range []struct {
		dims, ranks []int
		nnz         int
		taken       []bool
	}{
		{[]int{400, 6, 150}, []int{4, 3, 5}, 500, []bool{true, false, true}},
		{[]int{300, 40}, []int{5, 4}, 350, []bool{true, false}},
		{[]int{12, 10, 8}, []int{3, 3, 3}, 900, []bool{false, false, false}},
	} {
		x, u, sym := randomSetup(rng, tc.dims, tc.ranks, tc.nnz)
		plain, split := NewFlat(x, sym), NewFlat(x, sym)
		for n := range tc.dims {
			sm := &sym.Modes[n]
			cen, kr := split.SplitSingletons(n, tc.ranks)
			if cen.Taken() != tc.taken[n] || (kr != nil) != cen.Taken() {
				t.Fatalf("dims %v mode %d: census %+v, rows returned %v; want taken %v", tc.dims, n, cen, kr != nil, tc.taken[n])
			}

			// The census, recounted.
			singles, group, groups := 0, -1, 0
			for m := range tc.dims {
				if m == n {
					continue
				}
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
				t.Fatalf("dims %v mode %d: census %+v, recount %d singletons, group %d of %d indices", tc.dims, n, cen, singles, group, groups)
			}

			want := dense.NewMatrix(sm.NumRows(), cols)
			plain.TTMc(want, n, u, 1)
			for _, threads := range []int{1, 3} {
				got := dense.NewMatrix(sm.NumRows(), cols)
				split.TTMc(got, n, u, threads)
				for i, slice := range split.Rows(n) {
					for j, v := range got.Row(i) {
						if math.Float64bits(v) != math.Float64bits(want.At(int(sm.Pos[slice]), j)) {
							t.Fatalf("dims %v mode %d threads %d: row %d (slice %d) is not its list-order row", tc.dims, n, threads, i, slice)
						}
					}
				}
			}
			if kr == nil {
				if !slices.Equal(split.Rows(n), sm.Rows) {
					t.Fatalf("dims %v mode %d: the split is not taken, yet the rows moved", tc.dims, n)
				}
				continue
			}

			// The order, and the groups it describes.
			rows := split.Rows(n)
			if kr.Multi != sm.NumRows()-singles || kr.Ptr[len(kr.Idx)] != int32(singles) {
				t.Fatalf("dims %v mode %d: %d multi rows and %d grouped, want %d and %d", tc.dims, n, kr.Multi, kr.Ptr[len(kr.Idx)], sm.NumRows()-singles, singles)
			}
			if !slices.IsSorted(rows[:kr.Multi]) || !slices.IsSorted(kr.Idx) || len(slices.Compact(slices.Clone(kr.Idx))) != groups {
				t.Fatalf("dims %v mode %d: multi rows or group indices out of order", tc.dims, n)
			}
			for j, i := range kr.Idx {
				grp := rows[kr.Multi+int(kr.Ptr[j]) : kr.Multi+int(kr.Ptr[j+1])]
				if len(grp) == 0 || !slices.IsSorted(grp) {
					t.Fatalf("dims %v mode %d: group %d is empty or out of order", tc.dims, n, j)
				}
				for _, slice := range grp {
					nz := sm.RowNZ(int(sm.Pos[slice]))
					if len(nz) != 1 || x.Idx[group][nz[0]] != i {
						t.Fatalf("dims %v mode %d: slice %d is in group %d (index %d) but holds %d nonzeros", tc.dims, n, slice, j, i, len(nz))
					}
				}
			}
			for _, slice := range rows[:kr.Multi] {
				if len(sm.RowNZ(int(sm.Pos[slice]))) < 2 {
					t.Fatalf("dims %v mode %d: singleton slice %d among the multi rows", tc.dims, n, slice)
				}
			}
			if lead := leadMode(len(tc.dims), n); kr.Slow != (group == lead) {
				t.Fatalf("dims %v mode %d: Slow %v with group %d and lead mode %d", tc.dims, n, kr.Slow, group, lead)
			}

			kr.U = u[group]
			y := dense.NewMatrix(sm.NumRows(), cols)
			split.TTMc(y, n, u, 2)
			g, gk := dense.NewMatrix(cols, cols), dense.NewMatrix(cols, cols)
			dense.SyrkInto(g, y, nil, 2)
			dense.SyrkKronInto(gk, y, kr, nil, 2)
			var scale, diff float64
			for i, v := range g.Data {
				scale, diff = max(scale, math.Abs(v)), max(diff, math.Abs(gk.Data[i]-v))
			}
			if diff > 1e-13*scale {
				t.Fatalf("dims %v mode %d: split Gram off the SYRK by %g of its largest entry", tc.dims, n, diff/scale)
			}
		}
	}
}
