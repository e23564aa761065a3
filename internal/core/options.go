package core

import (
	"fmt"

	"hypertensor/internal/dense"
	"hypertensor/internal/tensor"
)

// TTMcStrategy names the shape of the TTMc kernel (ttm.DTree). The plan
// chooses, once, from what it can see of the input (resolveTTMc): the
// binary tree for order 4 and up, where the partial products the modes
// share are worth several-fold fewer multiply-adds per sweep, and the
// star for order 3 and below (one memoized node there buys little time
// for its memory) and for rank plans whose update lists are restricted
// to owned slices, which only the star's leaves take. Plan.TTMc and
// Result.TTMc report the choice; docs/formats.md has the measurements
// behind the rule.
type TTMcStrategy int

const (
	// TTMcAuto is the unresolved zero value: the plan's rule decides.
	TTMcAuto TTMcStrategy = iota
	// TTMcFlat is the star (ttm.BuildFlat): every mode's product is
	// recomputed from the nonzeros by a root child over the mode's update
	// lists (Algorithm 3). It is the reference path.
	TTMcFlat
	// TTMcDTree memoizes partial contractions shared between the modes
	// in the binary dimension tree (ttm.BuildDTree): internal nodes cache the
	// semi-sparse product over their mode set and are recomputed only
	// when a factor in their contracted complement changes, cutting the
	// TTMc flops per sweep several-fold (~4x on the 4-mode benchmark
	// presets; ttm.flat_madds against ttm.dtree_madds in `go run
	// ./benchmark`). The numeric results match
	// TTMcFlat to rounding and remain deterministic for any thread
	// count.
	TTMcDTree
)

// ttmcNames names the strategies in reports (cmd/hooi's `ttmc:
// strategy=` line), indexed by the TTMcStrategy value.
var ttmcNames = [...]string{
	TTMcAuto:  "auto",
	TTMcFlat:  "flat",
	TTMcDTree: "dtree",
}

// String names the strategy as reports print it.
func (t TTMcStrategy) String() string {
	if int(t) < 0 || int(t) >= len(ttmcNames) {
		return fmt.Sprintf("TTMcStrategy(%d)", int(t))
	}
	return ttmcNames[t]
}

// SVDMethod names a truncated SVD solver for the TRSVD step. A
// fixed-rank run chooses per mode, from the shape of the matricized
// product alone (ResolveSVD): Y_(n) has C = ∏_{t≠n} R_t columns and R_n
// singular vectors are wanted, and the Gram solver runs when C ≤ 32·R_n
// and C ≤ 256, Lanczos otherwise. Gram's work per row of Y_(n) is
// C·(C/2 + R_n) multiply-adds in two BLAS3 passes, plus a serial O(C³)
// tridiagonal reduction per solve; Lanczos's is C per GEMV pass, 30 to
// 58 passes at these ranks, and no eigenproblem. So Gram takes the
// order-3 shapes (C = 100 at ranks 10: 6.5x faster per solve) and order
// 4 at ranks 5 (C = 125: 1.75x, now that the eigensolver builds only the
// R_n vectors it returns), and Lanczos keeps the wide ones (C = 1000 at
// ranks 10: the reduction alone takes ~0.35 s; C = 400 at order 3, ranks
// 20: Gram is 1.6x slower per solve). Both sides of the rule are
// replicated, so every rank of a distributed world resolves the same
// way. An adaptive-rank run (Options.Eps) runs the randomized solver in
// every mode. Result.SVD reports the choice per mode; the README's
// "Solvers" section has the measurements.
type SVDMethod int

const (
	// SVDAuto is the unresolved zero value: the shape decides.
	SVDAuto SVDMethod = iota
	// SVDLanczos is Golub–Kahan–Lanczos bidiagonalization, the paper's
	// (SLEPc) method: matrix-free, one GEMV pass over Y_(n) per
	// operator application.
	SVDLanczos
	// SVDRandomized is the sketched range-finder solver
	// (trsvd.Randomized): a deterministic Gaussian panel through the
	// operator, adaptive power iterations, CholeskyQR2 Gram whitening,
	// and a projected small SVD. It runs where Options.Eps selects the
	// ranks.
	SVDRandomized
	// SVDGram is the exact two-pass solver (trsvd.Gram): G = Y_(n)ᵀY_(n)
	// by a symmetric rank-k product, its R_n leading eigenvectors by a
	// serial tridiagonal eigensolver, U = Y_(n)·V·Σ⁻¹ by one GEMM.
	SVDGram
)

// gramMaxColsPerRank is ResolveSVD's rule: the Gram solver runs on a
// mode whose matricized product has at most this many columns per
// requested singular vector. The benchmark's shapes sit at 10 and 25 on
// one side and at 100 on the other. At 25, Gram's C/2 + R = 13.5·R
// pass-equivalents per row are 2.2x Lanczos's ~6·R passes (31 at
// C = 125, R = 5) and still solve 1.75x faster: a BLAS3 pass outruns a
// GEMV pass ~4x here. At 32 the arithmetic ratio is 2.8x. Both solvers'
// per-solve times on either side of this bound and of gramMaxCols:
// go test -run '^$' -bench SVDRule . (the README's "Solvers" section).
const gramMaxColsPerRank = 32

// gramMaxCols caps ResolveSVD's Gram side on C alone, for Gram's serial
// O(C³) reduction and its C²/2 SYRK per row outgrow Lanczos's ~70
// passes of C however many vectors are wanted; the shorter the mode, the
// sooner. BenchmarkSVDRule times both solvers per mode at C = 256 and
// 289 (ranks 16 and 17 at order 3).
const gramMaxCols = 256

// ResolveSVD turns SVDAuto into the solver that runs on a matricized
// product with cols columns of which rank singular vectors are wanted;
// any other method is kept.
func ResolveSVD(m SVDMethod, cols, rank int) SVDMethod {
	if m != SVDAuto {
		return m
	}
	if cols <= gramMaxColsPerRank*rank && cols <= gramMaxCols {
		return SVDGram
	}
	return SVDLanczos
}

// svdNames names the solvers in reports (cmd/hooi's `trsvd: solver=`
// line), indexed by the SVDMethod value.
var svdNames = [...]string{
	SVDAuto:       "auto",
	SVDLanczos:    "lanczos",
	SVDRandomized: "rand",
	SVDGram:       "gram",
}

// String names the solver as reports print it.
func (m SVDMethod) String() string {
	if int(m) < 0 || int(m) >= len(svdNames) {
		return fmt.Sprintf("SVDMethod(%d)", int(m))
	}
	return svdNames[m]
}

// Options configure a Tucker/HOOI decomposition.
type Options struct {
	// Ranks holds the target rank R_n per mode. Required for fixed-rank
	// runs; optional under Eps, where it caps the adaptive per-mode
	// ranks.
	Ranks []int
	// Eps, when positive, switches to adaptive (epsilon-truncation) rank
	// selection: each mode keeps the directions of its sketched spectrum
	// with σ² ≥ eps²·‖X‖²/N (BTAS's per-eigenvalue count), growing the
	// sketch geometrically until its unseen tail cannot hide one more.
	// The threshold holds each dropped value, not their sum, so the rule
	// bounds no total error: ‖X − X̂‖ can exceed eps·‖X‖. Runs the
	// randomized solver. Must lie in (0, 1].
	Eps float64
	// MaxIters caps the number of ALS sweeps. 0 selects 50.
	MaxIters int
	// Tol stops the iteration when the fit improves by less than this
	// between sweeps. 0 selects 1e-5. Negative disables the test (run
	// exactly MaxIters sweeps), which the paper's benchmarks use.
	Tol float64
	// Threads bounds shared-memory parallelism; 0 uses GOMAXPROCS.
	Threads int
	// Seed makes the whole decomposition deterministic.
	Seed int64
	// MeasureAllocs records the steady-state heap allocation count and
	// bytes per sweep in Result.AllocsPerSweep and AllocBytesPerSweep
	// (two runtime.ReadMemStats calls per decomposition). Off by default;
	// the benchmark harness turns it on.
	MeasureAllocs bool
	// Initial optionally supplies explicit initial factor matrices
	// (I_n x R_n) in place of the seeded random start (InitialFactors) —
	// used for warm starts and for equivalence testing against the
	// distributed algorithm. The matrices are copied, not mutated.
	Initial []*dense.Matrix

	// svd and ttmc pin the solver and the TTMc strategy, for this
	// package's oracle tests to compare the paths. Left at zero, as
	// everywhere else, the shape decides (ResolveSVD, resolveTTMc); a
	// run under Eps takes the randomized solver whatever svd says.
	svd  SVDMethod
	ttmc TTMcStrategy
}

func (o *Options) withDefaults() Options {
	out := *o
	if out.MaxIters == 0 {
		out.MaxIters = 50
	}
	if out.Tol == 0 {
		out.Tol = 1e-5
	}
	return out
}

// Validate checks the options against a tensor's shape.
func (o *Options) Validate(x *tensor.COO) error {
	if x.NNZ() == 0 {
		return fmt.Errorf("core: cannot decompose an empty tensor")
	}
	if o.MaxIters < 0 {
		return fmt.Errorf("core: MaxIters %d is negative (0 selects the default of 50)", o.MaxIters)
	}
	if o.Eps != 0 && !(o.Eps > 0 && o.Eps <= 1) {
		return fmt.Errorf("core: Eps %v outside (0, 1]", o.Eps)
	}
	if o.Eps > 0 {
		// Adaptive rank: Ranks is optional and only caps the selection,
		// so the cross-mode product constraint does not apply.
		if o.Ranks != nil && len(o.Ranks) != x.Order() {
			return fmt.Errorf("core: %d rank caps for an order-%d tensor", len(o.Ranks), x.Order())
		}
		for n, r := range o.Ranks {
			if r < 1 {
				return fmt.Errorf("core: rank cap %d in mode %d must be positive", r, n)
			}
			if r > x.Dims[n] {
				return fmt.Errorf("core: rank cap %d exceeds mode-%d size %d", r, n, x.Dims[n])
			}
		}
	} else {
		if len(o.Ranks) != x.Order() {
			return fmt.Errorf("core: %d ranks for an order-%d tensor", len(o.Ranks), x.Order())
		}
		for n, r := range o.Ranks {
			if r < 1 {
				return fmt.Errorf("core: rank %d in mode %d must be positive", r, n)
			}
			if r > x.Dims[n] {
				return fmt.Errorf("core: rank %d exceeds mode-%d size %d", r, n, x.Dims[n])
			}
			other := 1
			for t, rt := range o.Ranks {
				if t != n {
					other *= rt
				}
			}
			if r > other {
				return fmt.Errorf("core: rank %d in mode %d exceeds the product of the other ranks (%d); Y_(%d) cannot have that many singular vectors", r, n, other, n)
			}
		}
	}
	if o.Initial != nil {
		if len(o.Initial) != x.Order() {
			return fmt.Errorf("core: %d initial factors for an order-%d tensor", len(o.Initial), x.Order())
		}
		for n, u := range o.Initial {
			if u.Rows != x.Dims[n] {
				return fmt.Errorf("core: initial factor %d has %d rows, want %d", n, u.Rows, x.Dims[n])
			}
			// Under Eps the initial column counts are just the starting
			// ranks; fixed-rank runs require an exact shape match.
			if o.Eps > 0 {
				if u.Cols < 1 || u.Cols > x.Dims[n] {
					return fmt.Errorf("core: initial factor %d has %d columns for mode size %d", n, u.Cols, x.Dims[n])
				}
			} else if u.Cols != o.Ranks[n] {
				return fmt.Errorf("core: initial factor %d has shape %dx%d, want %dx%d",
					n, u.Rows, u.Cols, x.Dims[n], o.Ranks[n])
			}
		}
	}
	return nil
}
