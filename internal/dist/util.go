package dist

import (
	"time"

	"hypertensor/internal/core"
	"hypertensor/internal/dense"
)

// DefaultInitial produces the deterministic random orthonormal initial
// factor matrices of core's seeded start, every mode drawn. A
// shared-memory engine and every rank of a distributed one draw the
// same modes 1…N−1 themselves (U_0 is solved before it is read), so a
// run given these as Initial gives the bits of one given none.
func DefaultInitial(dims, ranks []int, seed int64) []*dense.Matrix {
	return core.InitialFactors(dims, ranks, seed, 0)
}

// MaxDuration returns the maximum of the per-rank durations (the
// critical-path time of a phase), or zero for an empty slice.
func MaxDuration(ds []time.Duration) time.Duration {
	var max time.Duration
	for _, d := range ds {
		if d > max {
			max = d
		}
	}
	return max
}
