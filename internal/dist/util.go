package dist

import (
	"time"

	"hypertensor/internal/core"
	"hypertensor/internal/dense"
)

// DefaultInitial produces the deterministic random orthonormal initial
// factor matrices shared by the shared-memory and distributed drivers:
// it is core's random start for the same seed, so the two start from
// identical factors and their per-sweep fits are directly comparable.
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
