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
	factors := make([]*dense.Matrix, x.Order())
	if opts.Initial != nil {
		for n, u := range opts.Initial {
			factors[n] = u.Clone()
		}
		return factors
	}
	switch opts.Init {
	case InitHOSVD:
		// One workspace serves all modes: the sketch scratch grows to
		// the largest mode once instead of allocating per call.
		ws := trsvd.NewWorkspace()
		for n := range factors {
			// The sketch lives in ws and the next mode reuses it: copy out.
			sketch := trsvd.RangeFinder(x, n, ranks[n], opts.Seed+int64(n), opts.Threads, ws)
			factors[n] = dense.Orthonormalize(sketch.Clone(), opts.Threads)
		}
	default:
		rng := rand.New(rand.NewSource(opts.Seed))
		for n := range factors {
			factors[n] = dense.Orthonormalize(dense.RandomNormal(x.Shape()[n], ranks[n], rng), opts.Threads)
		}
	}
	return factors
}
