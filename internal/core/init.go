package core

import (
	"math/rand"

	"hypertensor/internal/dense"
)

// InitialFactors produces the initial orthonormal factor matrices
// (Algorithm 1, line 1) at the given per-mode ranks: Gaussian matrices
// drawn mode by mode from one math/rand stream seeded with seed, each
// orthonormalized on up to threads goroutines (the same bits for every
// thread count).
//
// It is the only start a decomposition takes besides Options.Initial.
// From it, one HOOI sweep is a randomized sequentially truncated HOSVD:
// mode n's product Y_(n) = X_(n)·(⊗_{t≠n} U_t) sketches X_(n) with the
// Kronecker product of the other modes' factors, Gaussian for the modes
// not yet solved and truncated for the ones solved, the design of
// Minster, Li & Ballard. So `hooi -iters 1` (or 2) is the one-pass
// Tucker, on the engine's own TTMc and solvers.
func InitialFactors(dims, ranks []int, seed int64, threads int) []*dense.Matrix {
	return randomFactors(dims, ranks, seed, threads, nil)
}

// randomFactors is InitialFactors, except that a non-nil u0, a zero
// matrix of mode 0's shape, stands in for U_0, which is not built: a
// cold sweep computes mode 0's product from U_1…U_{N−1} and scatters
// mode 0's solve over U_0 before anything reads it
// (TestColdSweepNeverReadsFirstFactor). Mode 0's normals are still drawn
// from the one stream, so the other modes get the numbers they would
// have had.
func randomFactors(dims, ranks []int, seed int64, threads int, u0 *dense.Matrix) []*dense.Matrix {
	factors := make([]*dense.Matrix, len(dims))
	rng := rand.New(rand.NewSource(seed))
	first := 0
	if u0 != nil {
		first = 1
		factors[0] = u0
		for range dims[0] * ranks[0] {
			rng.NormFloat64()
		}
	}
	for n := first; n < len(factors); n++ {
		factors[n] = dense.Orthonormalize(dense.RandomNormal(dims[n], ranks[n], rng), threads)
	}
	return factors
}
