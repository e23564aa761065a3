package core

import (
	"math/rand"

	"hypertensor/internal/dense"
	"hypertensor/internal/tensor"
	"hypertensor/internal/trsvd"
)

// InitialFactors produces the initial orthonormal factor matrices
// (Algorithm 1, line 1) at the given per-mode ranks (the requested
// ranks, or the starting probe ranks under adaptive selection).
func InitialFactors(x *tensor.COO, opts Options, ranks []int) []*dense.Matrix {
	return initialFactors(x, opts, ranks, nil)
}

// initialFactors is InitialFactors, except that a non-nil u0, a zero
// matrix of mode 0's shape, stands in for U_0, which is not built: a
// cold sweep computes mode 0's product from U_1…U_{N−1} and scatters
// mode 0's solve over U_0 before anything reads it
// (TestColdSweepNeverReadsFirstFactor). The other modes get the numbers
// they would have had: the random draw still takes mode 0's normals from
// the one stream, and the range finder seeds each mode apart (Seed+n).
// Given Initial factors are cloned whole, and u0 is then unused.
func initialFactors(x *tensor.COO, opts Options, ranks []int, u0 *dense.Matrix) []*dense.Matrix {
	factors := make([]*dense.Matrix, x.Order())
	if opts.Initial != nil {
		for n, u := range opts.Initial {
			factors[n] = u.Clone()
		}
		return factors
	}
	first := 0
	if u0 != nil {
		first = 1
		factors[0] = u0
	}
	switch opts.Init {
	case InitHOSVD:
		// One workspace serves all modes: the sketch scratch grows to
		// the largest mode once instead of allocating per call.
		ws := trsvd.NewWorkspace()
		for n := first; n < len(factors); n++ {
			// The sketch lives in ws and the next mode reuses it: copy out.
			sketch := trsvd.RangeFinder(x, n, ranks[n], opts.Seed+int64(n), opts.Threads, ws)
			factors[n] = dense.Orthonormalize(sketch.Clone(), opts.Threads)
		}
	default:
		rng := rand.New(rand.NewSource(opts.Seed))
		if u0 != nil {
			for range x.Dims[0] * ranks[0] {
				rng.NormFloat64()
			}
		}
		for n := first; n < len(factors); n++ {
			factors[n] = dense.Orthonormalize(dense.RandomNormal(x.Dims[n], ranks[n], rng), opts.Threads)
		}
	}
	return factors
}
