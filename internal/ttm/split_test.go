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
// mode, groups and rows ascending; TTMc writes every multi row with the
// bits it has in list order and every singleton compactly, its value
// times its row of the factor that is neither the mode's nor the
// group's, at any thread count; the rows it writes, expanded, are the
// list-order rows to rounding; the census counts what a recount over
// the lists finds; the madds counted are SweepFlops'; and the split
// Gram over the product is the plain one's to rounding. A mode whose
// split is not taken keeps its order and its full-width rows.
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
		anyTaken := false
		for n := range tc.dims {
			sm := &sym.Modes[n]
			cen, kr := split.SplitSingletons(n, tc.ranks)
			if cen.Taken() != tc.taken[n] || (kr != nil) != cen.Taken() {
				t.Fatalf("dims %v mode %d: census %+v, rows returned %v; want taken %v", tc.dims, n, cen, kr != nil, tc.taken[n])
			}
			anyTaken = anyTaken || cen.Taken()

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
			if kr == nil {
				if !slices.Equal(split.Rows(n), sm.Rows) {
					t.Fatalf("dims %v mode %d: the split is not taken, yet the rows moved", tc.dims, n)
				}
				got := dense.NewMatrix(sm.NumRows(), cols)
				split.TTMc(got, n, u, 3)
				if !slices.Equal(got.Data, want.Data) {
					t.Fatalf("dims %v mode %d: the split is not taken, yet the rows changed", tc.dims, n)
				}
				continue
			}

			// The order, and the groups it describes.
			rows, multi := split.Rows(n), sm.NumRows()-singles
			if kr.Rows() != singles {
				t.Fatalf("dims %v mode %d: %d rows grouped, want %d", tc.dims, n, kr.Rows(), singles)
			}
			if !slices.IsSorted(rows[:multi]) || !slices.IsSorted(kr.Idx) || len(slices.Compact(slices.Clone(kr.Idx))) != groups {
				t.Fatalf("dims %v mode %d: multi rows or group indices out of order", tc.dims, n)
			}
			for j, i := range kr.Idx {
				grp := rows[multi+int(kr.Ptr[j]) : multi+int(kr.Ptr[j+1])]
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
			for _, slice := range rows[:multi] {
				if len(sm.RowNZ(int(sm.Pos[slice]))) < 2 {
					t.Fatalf("dims %v mode %d: singleton slice %d among the multi rows", tc.dims, n, slice)
				}
			}
			if lead := leadMode(len(tc.dims), n); kr.Slow != (group == lead) {
				t.Fatalf("dims %v mode %d: Slow %v with group %d and lead mode %d", tc.dims, n, kr.Slow, group, lead)
			}

			// The rows: the multi rows' bits, each compact row its value
			// times the other factor's row, and all of them expanded the
			// list-order rows to rounding.
			kr.U = u[group]
			other := -1
			for m := range tc.dims {
				if m != n && m != group {
					other = m
				}
			}
			for _, threads := range []int{1, 3} {
				y := dense.NewMatrix(multi, cols)
				kr.T = *dense.NewMatrix(singles, cols/tc.ranks[group])
				split.TTMc(y, n, u, threads)
				for i, slice := range rows {
					id := sm.RowNZ(int(sm.Pos[slice]))[0]
					for j := range kr.T.Cols {
						if i < multi {
							break
						}
						tv := x.Val[id]
						if other >= 0 {
							tv *= u[other].At(int(x.Idx[other][id]), j)
						}
						if math.Float64bits(kr.T.At(i-multi, j)) != math.Float64bits(tv) {
							t.Fatalf("dims %v mode %d threads %d: compact row %d (slice %d) is not its value times its factor row", tc.dims, n, threads, i-multi, slice)
						}
					}
					for j := range y.Cols {
						if i >= multi {
							break
						}
						if math.Float64bits(y.At(i, j)) != math.Float64bits(want.At(int(sm.Pos[slice]), j)) {
							t.Fatalf("dims %v mode %d threads %d: row %d (slice %d) is not its list-order row", tc.dims, n, threads, i, slice)
						}
					}
				}
				full := kr.Materialize(y)
				for i, slice := range rows {
					for j, v := range full.Row(i) {
						w := want.At(int(sm.Pos[slice]), j)
						if math.Abs(v-w) > 1e-15*math.Abs(w) {
							t.Fatalf("dims %v mode %d threads %d: row %d (slice %d) expands to %v at %d, the list-order row holds %v", tc.dims, n, threads, i, slice, v, j, w)
						}
					}
				}
				if threads > 1 {
					g, gk := dense.NewMatrix(cols, cols), dense.NewMatrix(cols, cols)
					dense.SyrkInto(g, full, nil, 2)
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

		// A sweep counts what SweepFlops predicts, less than the plain
		// kernel's where a mode is split.
		f0 := split.Flops()
		for n := range tc.dims {
			y := dense.NewMatrix(len(split.Rows(n)), RowSize(u, n))
			if sp := split.splitOf(n); sp != nil {
				y.Rows, y.Data = sp.multi, y.Data[:sp.multi*y.Cols]
			}
			split.TTMc(y, n, u, 2)
		}
		if got, want := split.Flops()-f0, split.SweepFlops(tc.ranks); got != want || (got < plain.SweepFlops(tc.ranks)) != anyTaken {
			t.Fatalf("dims %v: a sweep counted %d madds, SweepFlops %d, the plain kernel's %d", tc.dims, got, want, plain.SweepFlops(tc.ranks))
		}
	}
}
