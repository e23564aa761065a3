package trsvd

import (
	"math/rand"
	"testing"

	"hypertensor/internal/dense"
)

// Every solver writes Result.U and Result.Sigma into its workspace: a
// second solve on the same workspace returns them on the same backing
// arrays, so the first solve's U is valid only until then. Each U has
// the bits of a solve on a fresh workspace.
func TestSolversReturnUInTheWorkspace(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	a := randomNormal(140, 30, rng)
	b := randomNormal(90, 24, rng) // smaller: the slot does not grow
	for _, s := range []struct {
		name  string
		solve func(Operator, int, Options) (*Result, error)
	}{{"gram", Gram}, {"lanczos", Lanczos}, {"randomized", Randomized}} {
		ws := NewWorkspace()
		var kept []*Result
		for _, m := range []*dense.Matrix{a, b} {
			op := &DenseOperator{A: m, Threads: 1}
			fresh, err := s.solve(op, 6, Options{Seed: 5})
			if err != nil {
				t.Fatal(err)
			}
			got, err := s.solve(op, 6, Options{Seed: 5, Work: ws})
			if err != nil {
				t.Fatal(err)
			}
			if !matEqualBits(fresh.U, got.U) {
				t.Fatalf("%s: U on a %dx%d operator differs from a fresh workspace's", s.name, m.Rows, m.Cols)
			}
			for i, v := range fresh.Sigma {
				if got.Sigma[i] != v {
					t.Fatalf("%s: sigma[%d] = %v, fresh workspace %v", s.name, i, got.Sigma[i], v)
				}
			}
			kept = append(kept, got)
		}
		if &kept[0].U.Data[0] != &kept[1].U.Data[0] {
			t.Errorf("%s: two solves on one workspace returned U on different arrays", s.name)
		}
		if &kept[0].Sigma[0] != &kept[1].Sigma[0] {
			t.Errorf("%s: two solves on one workspace returned Sigma on different arrays", s.name)
		}
	}
}

// Gram's re-whitening rotates U in place through the workspace's row
// blocks (dense.Scratch.Rotate), and gets the bits dense.MatMulInto
// writes into a separate panel: on row counts around the block height,
// 64 rows, on one and two threads, and with no allocation once the
// scratch has grown. The panel's
// columns are nearly parallel, so its defect is far above gramOrthTol
// and Gram would take this branch.
func TestGramRotatesUInPlace(t *testing.T) {
	const k, rotateRows = 10, 64
	rng := rand.New(rand.NewSource(31))
	for _, rows := range []int{1, 3, rotateRows - 1, rotateRows, rotateRows + 1, 3*rotateRows + 5} {
		u := dense.NewMatrix(rows, k)
		for i := 0; i < rows; i++ {
			base := rng.NormFloat64()
			for j := range u.Row(i) {
				u.Set(i, j, base+1e-6*rng.NormFloat64())
			}
		}
		c := dense.MatMulTA(u, u, 1)
		if d := orthDefect(c, k); !(d > gramOrthTol) {
			t.Fatalf("%d rows: defect %g does not exceed gramOrthTol", rows, d)
		}
		var svd dense.SVDWork
		wh := dense.NewMatrix(k, k)
		svd.GramWhitenInto(wh, c)
		for _, threads := range []int{1, 2} {
			want := dense.NewMatrix(rows, k)
			dense.MatMulInto(want, u, wh, threads)
			var ws Workspace
			got := u.Clone()
			ws.scratch.Rotate(got, wh, threads)
			if !matEqualBits(want, got) {
				t.Fatalf("%d rows, %d threads: the in-place rotation differs from MatMulInto", rows, threads)
			}
			if allocs := testing.AllocsPerRun(5, func() { ws.scratch.Rotate(got, wh, threads) }); allocs != 0 {
				t.Errorf("%d rows, %d threads: %v allocations per rotation", rows, threads, allocs)
			}
		}
	}
}
