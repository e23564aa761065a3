package ttm

import (
	"hypertensor/internal/dense"
	"hypertensor/internal/symbolic"
	"hypertensor/internal/tensor"
)

// Core forms the core tensor G = Y ×_n U_n^T from the compacted mode-n
// TTMc result y (rows correspond to sm.Rows) and the mode-n factor u.
// Since y already equals X ×_{t≠n} U_t^T in matricized form, one BLAS3
// product finishes the job (Algorithm 3 line 10):
//
//	G_(n) = Ũ^T · y, with Ũ the rows of u at the nonempty slices.
//
// The result is returned as a dense tensor with dims = ranks.
//
// The engine no longer calls Core or CoreMatricized: it forms G_(N)
// from the solver's compact U into buffers of its own, with nothing to
// gather. Both stay for the repository benchmark (benchmark/) and the
// tests, which pass a full factor.
func Core(y *dense.Matrix, sm *symbolic.Mode, u *dense.Matrix, ranks []int, threads int) *tensor.Dense {
	return CoreFromMatricized(CoreMatricized(y, sm.Rows, u, threads), ranks, sm.N)
}

// CoreMatricized computes G_(n) = Ũ^T · y as a ranks[n] x prod(other
// ranks) matrix without unfolding it into a dense tensor; row r of y
// belongs to slice rows[r]. A distributed rank passes the rows it owns:
// the result is its local contribution and the final G is an AllReduce
// away. It gathers Ũ into a new matrix; see Core for who calls it.
func CoreMatricized(y *dense.Matrix, rows []int32, u *dense.Matrix, threads int) *dense.Matrix {
	uc := dense.NewMatrix(len(rows), u.Cols)
	for r, row := range rows {
		copy(uc.Row(r), u.Row(int(row)))
	}
	return dense.MatMulTA(uc, y, threads)
}

// CoreFromMatricized unfolds a mode-n matricized core g (ranks[n] x
// prod(other ranks)) into a dense tensor of shape ranks.
func CoreFromMatricized(g *dense.Matrix, ranks []int, mode int) *tensor.Dense {
	out := tensor.NewDense(ranks)
	coord := make([]int, len(ranks))
	for r := 0; r < g.Rows; r++ {
		row := g.Row(r)
		for c, v := range row {
			tensor.UnmatricizeOffset(ranks, mode, r, c, coord)
			out.Data[out.Offset(coord)] = v
		}
	}
	return out
}

// MatricizeCore flattens a dense core tensor into its mode-n
// matricization (inverse of CoreFromMatricized); used by tests and by
// the reconstruction helpers.
func MatricizeCore(g *tensor.Dense, mode int) *dense.Matrix {
	return g.Matricize(mode)
}
