package trsvd

import (
	"fmt"
	"math"

	"hypertensor/internal/dense"
)

// The Randomized solver's settings.
const (
	// oversample is the number of sketch columns beyond the target rank.
	oversample = 8
	// maxPower caps the power-iteration rounds of one solve. Each round
	// costs two block operator passes; the solve stops below the cap as
	// soon as the Ritz energies settle, so the cap only binds on slowly
	// decaying spectra.
	maxPower = 6
	// ritzTol is the adaptive power-iteration stopping tolerance: the
	// solve ends as soon as the top-k Ritz energies move by less than
	// ritzTol (relative to the leading energy) between successive
	// projections. It runs tight — on nearly flat spectra the first
	// sweep picks the subspace basin every later sweep refines, so an
	// under-resolved solve shifts the whole trajectory. The comparison
	// runs on replicated values produced by fixed-order reductions, so
	// every thread count, schedule, and transport takes the identical
	// number of iterations.
	ritzTol = 1e-8
)

// whitenCond is the Gram condition number (λmax/λmin) above which an
// intermediate whitening pass is followed by a second one: one pass
// leaves O(cond·eps) orthogonality error, so the threshold keeps the
// intermediate bases orthonormal to ~1e-8 while the well-conditioned
// rounds skip half the panel traffic.
const whitenCond = 1e8

// maxRelDiffK returns max_j |a_j - b_j| scaled by the current leading
// value, over the first k entries.
func maxRelDiffK(a, b []float64, k int) float64 {
	scale := math.Abs(a[0])
	if scale == 0 {
		scale = 1
	}
	m := 0.0
	for j := 0; j < k; j++ {
		d := math.Abs(a[j] - b[j])
		if d > m {
			m = d
		}
	}
	return m / scale
}

// Randomized computes the k leading left singular vectors with a
// sketched range finder (Halko–Martinsson–Tropp): Y = A·Ω for a
// deterministic b = k + oversample column sketch Ω, then adaptive power
// iterations that sharpen the captured subspace until the Ritz spectrum
// settles. Each round orthonormalizes Y, takes one projection pass
// B = AᵀQ whose small SVD yields the current Ritz values, and stops as
// soon as the top-k values move by less than ritzTol (or the maxPower
// cap is reached); otherwise the B panel — already the power-iteration
// input — is CGS2-orthonormalized and pushed back through A. A solve
// that stops after r rounds costs 2 + 2r block operator passes riding
// the tiled BLAS3 kernels (one reduction each on a distributed
// operator), against ~2·(2k+10) GEMV passes for Lanczos — the randomized
// TRSVD path of Minster–Li–Ballard with spectrum-converged adaptivity,
// on the paper's row-distributed operators.
//
// Orthonormalization never uses a distributed QR: the local panel is
// whitened through its small global Gram matrix (G = YᵀY via one
// fixed-block reduction, C = V·Λ^{-1/2}), applied twice — the
// CholeskyQR2 discipline — so the basis is orthonormal to machine
// precision with two b x b eigenproblems as the only serial work. The
// replicated power-iteration panels are stabilized with the same
// two-pass classical Gram–Schmidt used by the Lanczos solver.
//
// The result depends on the operator, k and opts.Seed alone: sketches
// come from the counter-based GaussHash, panel products use the
// fixed-block reductions, and all small math (including the
// iteration-count decisions) runs on replicated matrices — so results
// are bitwise identical across thread counts, schedules, distributed
// transports, and a resumed run. The workspace carries nothing from one
// solve to the next; it also holds the returned U and Sigma, so in
// steady state a solve allocates only its Result.
func Randomized(op Operator, k int, opts Options) (*Result, error) {
	cols := op.Cols()
	if k <= 0 {
		return nil, fmt.Errorf("trsvd: k = %d must be positive", k)
	}
	if k > cols {
		return nil, fmt.Errorf("trsvd: k = %d exceeds column count %d", k, cols)
	}
	rows := op.LocalRows()
	b := k + oversample
	if b > cols {
		b = cols
	}
	ws := opts.work()
	threads := op.Dense().Threads
	res := &Result{}

	// Sketch W (cols x b, replicated).
	w := dense.ReuseMatrixUninit(ws.panelW, cols, b)
	ws.panelW = w
	fillSketch(w, opts.Seed)

	y := dense.ReuseMatrixUninit(ws.panelY, rows, b)
	ws.panelY = y
	op.MatMat(w, y)
	res.MatVecs += b
	res.Passes++

	coeff := dense.ReuseVec(ws.coeff, b)
	ws.coeff = coeff
	g := dense.ReuseMatrix(ws.gram, b, b)
	ws.gram = g
	g2 := dense.ReuseMatrix(ws.gram2, b, b)
	ws.gram2 = g2
	c1 := dense.ReuseMatrix(ws.white, b, b)
	ws.white = c1
	c2 := dense.ReuseMatrix(ws.white2, b, b)
	ws.white2 = c2
	q := dense.ReuseMatrixUninit(ws.qpanel, rows, b)
	ws.qpanel = q
	bm := dense.ReuseMatrixUninit(ws.panelB, cols, b)
	ws.panelB = bm

	// prevLam holds the previous round's Ritz energies; the first round
	// has nothing to compare against and always takes a power round.
	var prevLam []float64
	for it := 0; ; it++ {
		// CholeskyQR: whiten Y through its small global Gram. One pass
		// leaves O(κ²·eps) orthogonality error, which would bias the Ritz
		// energies below and stall the convergence check on slowly
		// decaying spectra — so a second whitening pass runs whenever the
		// Gram's condition says the error exceeds the noise the check can
		// absorb. Well-conditioned rounds (the common warm case) keep the
		// single cheap pass.
		op.RowGram(y, g)
		_, cond := ws.svd.GramWhitenInto(c1, g)
		ws.scratch.MatMulInto(q, y, c1, threads)
		y, q = q, y
		ws.panelY, ws.qpanel = y, q
		if cond > whitenCond {
			op.RowGram(y, g)
			ws.svd.GramWhitenInto(c2, g)
			ws.scratch.MatMulInto(q, y, c2, threads)
			y, q = q, y
			ws.panelY, ws.qpanel = y, q
		}

		// Projection pass B = AᵀQ (replicated). The eigenvalues of the
		// tiny b x b Gram BᵀB are the captured Ritz energies λ_j = σ_j² —
		// exactly the quantities the HOOI fit is made of — so the
		// convergence check costs no operator pass and no large SVD.
		op.MatTMat(y, bm)
		res.MatVecs += b
		res.Passes++
		ws.scratch.MatMulTAInto(g2, bm, bm, threads)
		_, lam, _ := ws.svd.SVD(g2)
		if prevLam != nil && maxRelDiffK(lam, prevLam, k) <= ritzTol {
			break
		}
		if it >= maxPower {
			break
		}
		prevLam = append(ws.ritzPrev[:0], lam[:k]...)
		ws.ritzPrev = prevLam

		// Power round: Y ← A·orth(B). The CGS2 orthonormalization runs
		// on the transposed panel so each basis vector is a contiguous
		// row, exactly like the Lanczos bases; without it the σ²-scaled
		// columns of B would wash out the trailing directions.
		t := dense.TransposeInto(ws.sketchT, bm)
		ws.sketchT = t
		orthRowsCGS2(t, coeff, &ws.scratch, threads)
		z := dense.TransposeInto(ws.panelZ, t)
		ws.panelZ = z
		op.MatMat(z, y)
		res.MatVecs += b
		res.Passes++
	}

	// CholeskyQR2 second pass on the final basis: the first whitening
	// left O(κ²·eps); this Gram is O(1)-conditioned, so its whitening C2
	// repairs Q to machine precision. The projection panel follows
	// algebraically — Q2 = Q·C2 ⇒ T = Q2ᵀA = C2ᵀ·Bᵀ, i.e. P = B·C2 —
	// so the repair costs no operator pass. The SVD of T yields the
	// sketched spectrum.
	op.RowGram(y, g)
	ws.svd.GramWhitenInto(c2, g)
	ws.scratch.MatMulInto(q, y, c2, threads)
	y, q = q, y
	ws.panelY, ws.qpanel = y, q
	p := dense.ReuseMatrixUninit(ws.panelZ, cols, b)
	ws.panelZ = p
	ws.scratch.MatMulInto(p, bm, c2, threads)
	t := dense.TransposeInto(ws.sketchT, p)
	ws.sketchT = t
	pu, sig, _ := ws.svd.SVD(t)

	// U = Q·P(:, :k): Y already holds the orthonormal basis, so the left
	// vectors are one rows x b by b x k product away.
	puK := dense.ReuseMatrixUninit(ws.vk, b, k)
	ws.vk = puK
	for i := 0; i < b; i++ {
		copy(puK.Row(i), pu.Row(i)[:k])
	}
	u := dense.ReuseMatrixUninit(ws.u, rows, k)
	ws.u = u
	ws.scratch.MatMulInto(u, y, puK, threads)
	sigma := dense.ReuseVec(ws.sigma, k)
	ws.sigma = sigma
	copy(sigma, sig[:k])
	// Numerically null directions (a rank-deficient operator) come back
	// with denormal singular values whose pu columns duplicate retained
	// directions instead of vanishing. Zero them explicitly so
	// completeBasis replaces them with deterministic orthonormal fill,
	// matching the Lanczos rank-deficiency contract.
	cut := 1e-10 * sigma[0]
	for j := 0; j < k; j++ {
		if sigma[j] <= cut {
			sigma[j] = 0
			for i := 0; i < rows; i++ {
				u.Set(i, j, 0)
			}
		}
	}

	completeBasis(op, u, sigma, opts, ws)
	res.U = u
	res.Sigma = sigma
	res.Converged = true
	return res, nil
}

// fillSketch writes the Gaussian sketch W. Entries are pure functions
// of (seed, row, column), so the sketch is identical on every rank,
// thread count, and transport.
func fillSketch(w *dense.Matrix, seed int64) {
	for i := 0; i < w.Rows; i++ {
		row := w.Row(i)
		for j := range row {
			row[j] = GaussHash(seed, int64(i), int64(j))
		}
	}
}

// GaussHash returns a deterministic pseudo-Gaussian sample for the
// sketch entry Ω[col, j]: the sum of four independent uniform(-1,1)
// hashes (variance-normalized), light-tailed enough for a range finder.
func GaussHash(seed, col, j int64) float64 {
	var sum float64
	base := uint64(seed)*0x9E3779B97F4A7C15 ^ uint64(col)*0xC2B2AE3D27D4EB4F ^ uint64(j)*0x165667B19E3779F9
	for i := uint64(1); i <= 4; i++ {
		z := base + i*0x9E3779B97F4A7C15
		z ^= z >> 30
		z *= 0xBF58476D1CE4E5B9
		z ^= z >> 27
		z *= 0x94D049BB133111EB
		z ^= z >> 31
		sum += 2*float64(z>>11)/float64(1<<53) - 1
	}
	// Var(uniform(-1,1)) = 1/3; sum of 4 has variance 4/3.
	return sum * 0.8660254037844386 // * sqrt(3)/2
}

// orthRowsCGS2 orthonormalizes the rows of t in place with two-pass
// classical Gram–Schmidt — the same CGS2 discipline as the Lanczos
// reorthogonalization, on the same contiguous-rows layout: per row one
// GEMV coefficient sweep against the rows above it, one fused update
// sweep, and a second pass when the norm drops. Numerically dependent
// rows are zeroed (the sketch carried a redundant direction); the Gram
// whitening downstream tolerates the explicit zero.
func orthRowsCGS2(t *dense.Matrix, coeff []float64, sc *dense.Scratch, threads int) {
	var view dense.Matrix
	for s := 0; s < t.Rows; s++ {
		v := t.Row(s)
		if s > 0 {
			view.Rows, view.Cols = s, t.Cols
			view.Data = t.Data[:s*t.Cols]
			for pass := 0; pass < 2; pass++ {
				before := dense.Nrm2(v)
				sc.Gemv(&view, v, coeff[:s], threads)
				for r := 0; r < s; r++ {
					dense.Axpy(-coeff[r], t.Row(r), v)
				}
				if dense.Nrm2(v) > 0.7*before {
					break
				}
			}
		}
		nrm := dense.Nrm2(v)
		if nrm > 1e-12 {
			dense.Scal(1/nrm, v)
		} else {
			zero(v)
		}
	}
}

// EpsRankSelect applies the epsilon-truncation rule (the BTAS per-mode
// threshold split) to a sketched spectrum: sigma holds the descending
// singular value estimates of one mode's matricization, frob2 its full
// squared Frobenius mass, and tau the per-mode threshold
// eps²·‖X‖²/N. The returned rank counts the values with σ² ≥ tau,
// clamped to [1, len(sigma)]. grow reports that the sketch cannot
// certify the choice — every sketched value cleared the threshold AND
// the unseen tail still carries more than tau of energy, so a larger
// sketch might reveal more retainable directions; callers grow the
// sketch geometrically and re-solve until grow is false or a cap is
// hit. Non-finite inputs never panic: a NaN sigma terminates the
// retained prefix, and a NaN tail suppresses growth.
func EpsRankSelect(sigma []float64, frob2, tau float64) (rank int, grow bool) {
	kept := 0
	tail := frob2
	for _, s := range sigma {
		s2 := s * s
		tail -= s2
		if !(s2 >= tau) {
			break
		}
		kept++
	}
	rank = kept
	if rank < 1 {
		rank = 1
	}
	if len(sigma) == 0 {
		return rank, false
	}
	if rank > len(sigma) {
		rank = len(sigma)
	}
	grow = kept == len(sigma) && tail > tau && !math.IsNaN(tail)
	return rank, grow
}
