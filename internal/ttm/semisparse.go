package ttm

import (
	"sort"

	"hypertensor/internal/dense"
	"hypertensor/internal/tensor"
)

// SemiSparse is a tensor that is sparse in some modes and dense in the
// others: each entry couples one coordinate per remaining sparse mode
// with a dense block over the contracted modes. It is only the
// intermediate of the MET baseline's TTM chain (ChainTTMc, the Matlab
// Tensor Toolbox strategy the paper compares against): contracting mode
// m with Uᵀ turns the sparse mode-m coordinate into a dense rank-R_m
// axis, until one sparse mode is left for MatricizeRows.
//
// Block layout: each contraction appends its rank axis as the fastest-
// varying dimension, and contractions proceed in ascending mode order,
// so later original modes always vary faster — matching both the
// Kronecker layout of the TTMc kernels and tensor.Dense's row-major
// order.
type SemiSparse struct {
	Dims        []int     // original mode sizes
	SparseModes []int     // still-sparse modes, ascending
	Keys        [][]int32 // Keys[m] populated only for sparse modes; len = NEntries
	BlockSize   int
	Blocks      []float64 // NEntries * BlockSize
}

// FromCOO wraps a sparse tensor as a fully sparse SemiSparse (block
// size 1), copying the index and value data.
func FromCOO(x *tensor.COO) *SemiSparse {
	order := x.Order()
	s := &SemiSparse{
		Dims:        append([]int(nil), x.Dims...),
		SparseModes: make([]int, order),
		Keys:        make([][]int32, order),
		BlockSize:   1,
		Blocks:      append([]float64(nil), x.Val...),
	}
	for m := 0; m < order; m++ {
		s.SparseModes[m] = m
		s.Keys[m] = append([]int32(nil), x.Idx[m]...)
	}
	return s
}

// NEntries returns the number of semi-sparse entries.
func (s *SemiSparse) NEntries() int {
	if s.BlockSize == 0 {
		return 0
	}
	return len(s.Blocks) / s.BlockSize
}

// Block returns the dense block of entry e.
func (s *SemiSparse) Block(e int) []float64 {
	return s.Blocks[e*s.BlockSize : (e+1)*s.BlockSize]
}

// Contract computes Z = S ×_m Uᵀ for a still-sparse mode m: entries
// agreeing on every other sparse coordinate merge, and each merged
// block becomes Σ_e block_e ⊗ U(key_e, :). The receiver is unchanged.
func (s *SemiSparse) Contract(m int, u *dense.Matrix) *SemiSparse {
	idx := -1
	for _, sm := range s.SparseModes {
		if sm == m {
			idx = m
		}
	}
	if idx == -1 {
		panic("ttm: Contract on a mode that is not sparse")
	}
	rem := make([]int, 0, len(s.SparseModes)-1)
	for _, sm := range s.SparseModes {
		if sm != m {
			rem = append(rem, sm)
		}
	}
	n := s.NEntries()
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	sort.Slice(perm, func(a, b int) bool {
		ia, ib := perm[a], perm[b]
		for _, sm := range rem {
			ka, kb := s.Keys[sm][ia], s.Keys[sm][ib]
			if ka != kb {
				return ka < kb
			}
		}
		return false
	})
	sameGroup := func(a, b int) bool {
		for _, sm := range rem {
			if s.Keys[sm][a] != s.Keys[sm][b] {
				return false
			}
		}
		return true
	}

	r := u.Cols
	out := &SemiSparse{
		Dims:        s.Dims,
		SparseModes: rem,
		Keys:        make([][]int32, len(s.Keys)),
		BlockSize:   s.BlockSize * r,
	}
	for _, sm := range rem {
		out.Keys[sm] = make([]int32, 0, n)
	}
	i := 0
	for i < n {
		j := i
		start := len(out.Blocks)
		out.Blocks = append(out.Blocks, make([]float64, out.BlockSize)...)
		dst := out.Blocks[start : start+out.BlockSize]
		for j < n && sameGroup(perm[i], perm[j]) {
			e := perm[j]
			urow := u.Row(int(s.Keys[m][e]))
			src := s.Block(e)
			for p, c := range src {
				if c != 0 {
					dense.Axpy(c, urow, dst[p*r:(p+1)*r])
				}
			}
			j++
		}
		for _, sm := range rem {
			out.Keys[sm] = append(out.Keys[sm], s.Keys[sm][perm[i]])
		}
		i = j
	}
	return out
}

// MatricizeRows emits the compacted mode-n matricization of a
// semi-sparse tensor whose only remaining sparse mode is n: rows sorted
// by the mode-n index, one per distinct index, plus the index list.
// This is the final step of a TTM chain feeding the TRSVD.
func (s *SemiSparse) MatricizeRows(n int) (rows []int32, y *dense.Matrix) {
	if len(s.SparseModes) != 1 || s.SparseModes[0] != n {
		panic("ttm: MatricizeRows requires exactly one remaining sparse mode")
	}
	ne := s.NEntries()
	perm := make([]int, ne)
	for i := range perm {
		perm[i] = i
	}
	keys := s.Keys[n]
	sort.Slice(perm, func(a, b int) bool { return keys[perm[a]] < keys[perm[b]] })
	rows = make([]int32, ne)
	y = dense.NewMatrix(ne, s.BlockSize)
	for out, e := range perm {
		rows[out] = keys[e]
		copy(y.Row(out), s.Block(e))
	}
	return rows, y
}
