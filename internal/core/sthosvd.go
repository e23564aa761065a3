package core

import (
	"fmt"
	"sort"
	"time"

	"hypertensor/internal/dense"
	"hypertensor/internal/tensor"
	"hypertensor/internal/trsvd"
	"hypertensor/internal/ttm"
)

// STHOSVDOptions configure the sequentially truncated HOSVD.
type STHOSVDOptions struct {
	// Ranks holds the target rank per mode. Required for fixed-rank
	// runs; optional under Eps, where it caps the adaptive ranks.
	Ranks []int
	// Eps, when positive, selects each mode's rank adaptively: the
	// sketched projected spectrum is truncated at the per-mode energy
	// threshold eps²·‖X‖²/N (the BTAS threshold split), and the sketch
	// grows geometrically until the crossing is inside it — the
	// classical error-controlled ST-HOSVD. Must lie in (0, 1].
	Eps float64
	// Seed makes the sketches deterministic.
	Seed int64
	// Threads bounds parallelism of the dense kernels; 0 = GOMAXPROCS.
	Threads int
}

// The range finder's settings in STHOSVD.
const (
	// sthosvdOversample is the number of sketch columns beyond the rank.
	sthosvdOversample = 4
	// sthosvdPower is the number of subspace refinement passes over the
	// current intermediate; each multiplies accuracy on slowly decaying
	// spectra at the cost of one more sweep.
	sthosvdPower = 1
)

// STHOSVD computes a Tucker decomposition with the sequentially
// truncated higher-order SVD: modes are processed once, in ascending
// order, each factor is taken as an (approximate) dominant left basis
// of the *current* partially contracted tensor, and the tensor is
// immediately truncated by that factor before the next mode. The TTMc
// operation it relies on is exactly the semi-sparse contraction
// machinery of internal/ttm — the paper's closing remark that its TTMc
// methods serve other Tucker algorithms, made concrete.
//
// Factor bases are found with a randomized range finder (hash-generated
// Gaussian sketch plus sthosvdPower refinement passes): an exact sparse
// TRSVD of X_(n) is exactly what §III.A.2 rules out, since the
// matricization has ∏_{t≠n} I_t columns. One ALS pass of HOOI from the
// ST-HOSVD factors recovers or beats plain HOOI's fit in practice — use
// Options.Initial to chain the two.
func STHOSVD(x *tensor.COO, opts STHOSVDOptions) (*Result, error) {
	if x.NNZ() == 0 {
		return nil, fmt.Errorf("core: cannot decompose an empty tensor")
	}
	order := x.Order()
	if opts.Eps != 0 && !(opts.Eps > 0 && opts.Eps <= 1) {
		return nil, fmt.Errorf("core: Eps %v outside (0, 1]", opts.Eps)
	}
	if opts.Eps > 0 {
		if opts.Ranks != nil && len(opts.Ranks) != order {
			return nil, fmt.Errorf("core: %d rank caps for an order-%d tensor", len(opts.Ranks), order)
		}
	} else if len(opts.Ranks) != order {
		return nil, fmt.Errorf("core: %d ranks for an order-%d tensor", len(opts.Ranks), order)
	}
	for n, r := range opts.Ranks {
		if r < 1 || r > x.Dims[n] {
			return nil, fmt.Errorf("core: invalid rank %d in mode %d", r, n)
		}
	}
	start := time.Now()
	res := &Result{}
	normX := x.Norm(opts.Threads)
	s := ttm.FromCOO(x)
	factors := make([]*dense.Matrix, order)
	chosen := make([]int, order)
	tau := opts.Eps * opts.Eps * normX * normX / float64(order)
	for n := 0; n < order; n++ {
		if opts.Eps > 0 {
			capR := 0
			if opts.Ranks != nil {
				capR = opts.Ranks[n]
			}
			factors[n] = adaptiveFactor(s, n, capR, tau, opts.Seed+101*int64(n))
		} else {
			k := opts.Ranks[n] + sthosvdOversample
			if k > x.Dims[n] {
				k = x.Dims[n]
			}
			sketch := sketchMode(s, n, k, opts.Seed+101*int64(n))
			basis := dense.Orthonormalize(sketch, 1)
			for it := 0; it < sthosvdPower; it++ {
				// One subspace refinement: project the mode-n Gram action
				// through the semi-sparse entries, Z = Y_(n) (Y_(n)^T B).
				basis = dense.Orthonormalize(gramApply(s, n, basis), 1)
			}
			// Truncate the refined basis to R_n columns via the projected
			// small eigenproblem: B' = B·Q where Q holds the top
			// eigenvectors of Bᵀ Y Yᵀ B.
			factors[n] = truncateBasis(s, n, basis, opts.Ranks[n])
		}
		chosen[n] = factors[n].Cols
		s = s.Contract(n, factors[n])
	}
	res.Core = s.DenseCore(chosen)
	res.Factors = factors
	res.ChosenRanks = chosen
	res.Fit = FitFromNorms(normX, res.Core.Norm())
	res.FitHistory = []float64{res.Fit}
	res.Iters = 1
	res.Timings.TTMc = time.Since(start)
	return res, nil
}

// adaptiveFactor finds one mode's factor under epsilon truncation: a
// sketched basis of b columns is refined and projected exactly like the
// fixed-rank path, but the kept rank is the number of projected
// eigenvalues (≈ σ²) at or above the per-mode threshold tau, and b
// doubles until the spectrum's threshold crossing lies inside the
// sketch (or the mode size / rank cap is reached), so the tail bound is
// certified rather than assumed.
func adaptiveFactor(s *ttm.SemiSparse, n, capR int, tau float64, seed int64) *dense.Matrix {
	dim := s.Dims[n]
	maxR := dim
	if capR > 0 && capR < maxR {
		maxR = capR
	}
	b := 8 + sthosvdOversample
	if b > dim {
		b = dim
	}
	for {
		basis := dense.Orthonormalize(sketchMode(s, n, b, seed), 1)
		for it := 0; it < sthosvdPower; it++ {
			basis = dense.Orthonormalize(gramApply(s, n, basis), 1)
		}
		z := gramApply(s, n, basis) // Y Yᵀ B
		m := dense.MatMulTA(basis, z, 1)
		symmetrize(m)
		q, lam, _ := dense.SVD(m)
		kept := 0
		for _, l := range lam {
			if !(l >= tau) {
				break
			}
			kept++
		}
		if kept < b || b >= dim || kept >= maxR {
			r := kept
			if r < 1 {
				r = 1
			}
			if r > maxR {
				r = maxR
			}
			qTop := dense.NewMatrix(q.Rows, r)
			for i := 0; i < q.Rows; i++ {
				copy(qTop.Row(i), q.Row(i)[:r])
			}
			return dense.MatMul(basis, qTop, 1)
		}
		b *= 2
		if b > dim {
			b = dim
		}
	}
}

// sketchMode computes S = Y_(n)·Ω for the semi-sparse tensor's mode-n
// matricization, with the Gaussian sketch Ω generated entry-wise by
// hashing, so the (astronomically wide) matricization is never formed.
func sketchMode(s *ttm.SemiSparse, n, k int, seed int64) *dense.Matrix {
	out := dense.NewMatrix(s.Dims[n], k)
	ne := s.NEntries()
	for e := 0; e < ne; e++ {
		row := out.Row(int(s.Keys[n][e]))
		base := colHash(s, n, e)
		block := s.Block(e)
		for p, v := range block {
			if v == 0 {
				continue
			}
			col := base ^ int64(uint64(p+1)*0x9E3779B97F4A7C15)
			for j := 0; j < k; j++ {
				row[j] += v * trsvd.GaussHash(seed, col, int64(j))
			}
		}
	}
	return out
}

// gramApply computes Z = Y_(n)·(Y_(n)ᵀ·B) without materializing Y_(n):
// grouping entries by their mode-n coordinate, each matricized row is a
// concatenation of blocks at distinct column groups, so the Gram action
// reduces to per-column-group outer products accumulated in two sparse
// sweeps.
func gramApply(s *ttm.SemiSparse, n int, b *dense.Matrix) *dense.Matrix {
	k := b.Cols
	ne := s.NEntries()
	// First sweep: W[e] = block_e ᵀ··· the projection of each entry's
	// column group onto B's rows: W(e, p, j) contribution... Since
	// distinct entries occupy disjoint column groups of Y_(n) (same
	// column group only when all non-n sparse keys coincide — impossible
	// after contraction, and harmless double-count otherwise is avoided
	// by grouping on entry identity), Yᵀ·B restricted to entry e's
	// columns is block_e ⊗ rows: C_e = block_e · B(i_e, :) stacked per
	// block position.
	ce := make([]float64, ne*s.BlockSize*k)
	for e := 0; e < ne; e++ {
		brow := b.Row(int(s.Keys[n][e]))
		block := s.Block(e)
		dst := ce[e*s.BlockSize*k : (e+1)*s.BlockSize*k]
		for p, v := range block {
			if v == 0 {
				continue
			}
			dense.Axpy(v, brow, dst[p*k:(p+1)*k])
		}
	}
	// Entries sharing all non-n keys DO share columns; sum their C_e
	// contributions per column group before the second sweep. After a
	// Contract this cannot happen; for a raw COO tensor it can (several
	// nonzeros in one fiber). Group via sorting on the non-n keys.
	groups := groupByOtherKeys(s, n)
	z := dense.NewMatrix(s.Dims[n], k)
	colSum := make([]float64, s.BlockSize*k)
	for _, g := range groups {
		for i := range colSum {
			colSum[i] = 0
		}
		for _, e32 := range g {
			e := int(e32)
			dense.Axpy(1, ce[e*s.BlockSize*k:(e+1)*s.BlockSize*k], colSum)
		}
		for _, e32 := range g {
			e := int(e32)
			zrow := z.Row(int(s.Keys[n][e]))
			block := s.Block(e)
			for p, v := range block {
				if v == 0 {
					continue
				}
				dense.Axpy(v, colSum[p*k:(p+1)*k], zrow)
			}
		}
	}
	return z
}

// truncateBasis reduces an orthonormal basis B (I_n x k) to the R_n
// directions carrying the most mass of Y_(n): it diagonalizes the small
// projected Gram matrix M = (YᵀB)ᵀ(YᵀB) implicitly via C = gramApply
// products — cheaper: use the Rayleigh quotient M = Bᵀ·(Y Yᵀ B), then
// B·Q_top.
func truncateBasis(s *ttm.SemiSparse, n int, b *dense.Matrix, r int) *dense.Matrix {
	if b.Cols <= r {
		return b
	}
	z := gramApply(s, n, b) // Y Yᵀ B
	m := dense.MatMulTA(b, z, 1)
	symmetrize(m)
	q, _, _ := dense.SVD(m)
	qTop := dense.NewMatrix(q.Rows, r)
	for i := 0; i < q.Rows; i++ {
		copy(qTop.Row(i), q.Row(i)[:r])
	}
	return dense.MatMul(b, qTop, 1)
}

// symmetrize averages m against its transpose in place — rounding from
// the two sparse sweeps otherwise perturbs the eigen-decomposition.
func symmetrize(m *dense.Matrix) {
	for i := 0; i < m.Rows; i++ {
		for j := i + 1; j < m.Cols; j++ {
			v := 0.5 * (m.At(i, j) + m.At(j, i))
			m.Set(i, j, v)
			m.Set(j, i, v)
		}
	}
}

// groupByOtherKeys clusters entry ids by their sparse keys excluding
// mode n (the entries sharing a matricized column group).
func groupByOtherKeys(s *ttm.SemiSparse, n int) [][]int32 {
	ne := s.NEntries()
	rem := make([]int, 0, len(s.SparseModes))
	for _, sm := range s.SparseModes {
		if sm != n {
			rem = append(rem, sm)
		}
	}
	perm := make([]int32, ne)
	for i := range perm {
		perm[i] = int32(i)
	}
	if len(rem) == 0 {
		return [][]int32{perm}
	}
	lessFn := func(a, b int32) bool {
		for _, sm := range rem {
			ka, kb := s.Keys[sm][a], s.Keys[sm][b]
			if ka != kb {
				return ka < kb
			}
		}
		return false
	}
	sort.Slice(perm, func(a, b int) bool { return lessFn(perm[a], perm[b]) })
	var groups [][]int32
	i := 0
	for i < ne {
		j := i
		for j < ne && !lessFn(perm[i], perm[j]) && !lessFn(perm[j], perm[i]) {
			j++
		}
		groups = append(groups, perm[i:j])
		i = j
	}
	return groups
}

// colHash mixes an entry's non-n sparse keys into a 64-bit column-group
// id for sketch generation (collisions only correlate two sketch
// columns, harmless for a range finder).
func colHash(s *ttm.SemiSparse, n, e int) int64 {
	var h uint64 = 0x9E3779B97F4A7C15
	for _, sm := range s.SparseModes {
		if sm == n {
			continue
		}
		h ^= uint64(s.Keys[sm][e]) + 0x9E3779B97F4A7C15 + (h << 6) + (h >> 2)
		h *= 0xBF58476D1CE4E5B9
	}
	return int64(h)
}
