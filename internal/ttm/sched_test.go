package ttm

import (
	"math/rand"
	"testing"

	"hypertensor/internal/dense"
	"hypertensor/internal/par"
	"hypertensor/internal/tensor"
)

// Every thread count must produce the bitwise-identical flat TTMc
// result through the entry point the benchmark calls: the chains move
// row ownership between workers, never the per-row accumulation order.
func TestTTMcSchedBitwiseEquivalent(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	x, u, sym := randomSetup(rng, []int{40, 25, 30}, []int{4, 3, 5}, 900)
	for mode := 0; mode < x.Order(); mode++ {
		sm := &sym.Modes[mode]
		ref := dense.NewMatrix(sm.NumRows(), RowSize(u, mode))
		TTMc(ref, x, sm, u, 1)
		for _, threads := range []int{1, 2, 4, 8} {
			y := dense.NewMatrix(sm.NumRows(), RowSize(u, mode))
			TTMcSched(y, x, sm, u, threads, par.ScheduleBalanced)
			for i := range ref.Data {
				if y.Data[i] != ref.Data[i] {
					t.Fatalf("mode=%d threads=%d: bit difference at %d", mode, threads, i)
				}
			}
		}
	}
}

// Update lists restricted by Mode.Select drive the kernel to exactly the
// selected rows of the full product, bit for bit, at every thread
// count — the owned-rows-only TTMc of a coarse-grain rank.
func TestTTMcSelectedRowsBitwiseEquivalent(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	x, u, sym := randomSetup(rng, []int{30, 20, 25}, []int{3, 4, 3}, 700)
	sm := &sym.Modes[0]
	rows := make([]int32, 0, sm.NumRows())
	for r := 0; r < sm.NumRows(); r += 2 {
		rows = append(rows, int32(r))
	}
	full := dense.NewMatrix(sm.NumRows(), RowSize(u, 0))
	TTMc(full, x, sm, u, 1)
	sel := sm.Select(rows)
	var listed int
	for _, r := range rows {
		listed += len(sm.RowNZ(int(r)))
	}
	if len(sel.NZ) != listed {
		t.Fatalf("selected lists hold %d nonzeros, the rows own %d", len(sel.NZ), listed)
	}
	for _, threads := range []int{1, 2, 5} {
		y := dense.NewMatrix(len(rows), RowSize(u, 0))
		TTMc(y, x, &sel, u, threads)
		for j, r := range rows {
			if sel.Rows[j] != sm.Rows[r] {
				t.Fatalf("selected row %d is slice %d, want %d", j, sel.Rows[j], sm.Rows[r])
			}
			for c, v := range y.Row(j) {
				if v != full.Row(int(r))[c] {
					t.Fatalf("threads=%d: bit difference at row %d col %d", threads, j, c)
				}
			}
		}
	}
}

// The CSF fiber engine must be thread-count-invariant for every mode,
// including the precomputed LPT emission path.
func TestCSFTTMcSchedBitwiseEquivalent(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	x, u, _ := randomSetup(rng, []int{15, 10, 8, 6}, []int{3, 2, 2, 3}, 600)
	c := tensor.NewCSF(x, tensor.CSFOptions{})
	ref := NewCSFTTMc(c)
	for mode := 0; mode < x.Order(); mode++ {
		want := dense.NewMatrix(ref.NumRows(mode), RowSize(u, mode))
		ref.TTMc(want, mode, u, 1)
		k := NewCSFTTMc(c)
		for _, threads := range []int{1, 2, 4, 8} {
			y := dense.NewMatrix(k.NumRows(mode), RowSize(u, mode))
			k.TTMc(y, mode, u, threads)
			for i := range want.Data {
				if y.Data[i] != want.Data[i] {
					t.Fatalf("mode=%d threads=%d: bit difference at %d", mode, threads, i)
				}
			}
		}
	}
}

// The balanced schedule's cached partitions must survive thread-count
// changes (rebuild) and factor-rank changes (no dependence).
func TestCSFTTMcPartitionCacheAcrossThreadCounts(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	x, u, _ := randomSetup(rng, []int{20, 15, 10}, []int{3, 3, 3}, 500)
	c := tensor.NewCSF(x, tensor.CSFOptions{})
	k := NewCSFTTMc(c)
	mode := c.Perm()[1] // a non-root mode: exercises the emission path
	ref := dense.NewMatrix(k.NumRows(mode), RowSize(u, mode))
	k.TTMc(ref, mode, u, 2)
	for _, threads := range []int{4, 2, 8, 2} {
		y := dense.NewMatrix(k.NumRows(mode), RowSize(u, mode))
		k.TTMc(y, mode, u, threads)
		for i := range ref.Data {
			if y.Data[i] != ref.Data[i] {
				t.Fatalf("threads=%d: cached partition broke results at %d", threads, i)
			}
		}
	}
}
