package core

import (
	"fmt"
	"strings"

	"hypertensor/internal/dense"
	"hypertensor/internal/tensor"
)

// TTMcStrategy selects how the N per-mode TTMc products of one HOOI
// sweep are computed.
type TTMcStrategy int

const (
	// TTMcAuto (the default) lets the plan choose, once, from what it
	// can see of the input: the dimension tree for tensors of order 4
	// and up, where the partial products the modes share are worth
	// several-fold fewer multiply-adds per sweep, and the flat path for
	// order 3 and below (one memoized node there buys little time for
	// its memory) and for rank plans whose update lists are restricted
	// to owned slices, which only the flat kernel reads.
	// Plan.TTMc and Result.TTMc report the choice; docs/formats.md has
	// the measurements behind the rule.
	TTMcAuto TTMcStrategy = iota
	// TTMcFlat recomputes every mode's product from the nonzeros with
	// the row-parallel kernel over the per-mode update lists
	// (Algorithm 3). It is the reference path.
	TTMcFlat
	// TTMcDTree memoizes partial contractions shared between the modes
	// in a binary dimension tree (ttm.DTree): internal nodes cache the
	// semi-sparse product over their mode set and are recomputed only
	// when a factor in their contracted complement changes, cutting the
	// TTMc flops per sweep several-fold (~4x on the 4-mode benchmark
	// presets; ttm.flat_madds against ttm.dtree_madds in `go run
	// ./benchmark`). The numeric results match
	// TTMcFlat to rounding and remain deterministic for any thread
	// count. Needs a tensor of order 2 or more.
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

// SVDMethod selects the truncated SVD solver used for the TRSVD step.
type SVDMethod int

const (
	// SVDAuto (the default) chooses per mode, from the shape of the
	// matricized product alone: Y_(n) has C = ∏_{t≠n} R_t columns and
	// R_n singular vectors are wanted, and the Gram solver runs when
	// C ≤ 32·R_n and C ≤ 256, Lanczos otherwise (ResolveSVD). Gram's
	// work per row of Y_(n) is C·(C/2 + R_n) multiply-adds in two BLAS3
	// passes, plus a serial O(C³) tridiagonal reduction per solve;
	// Lanczos's is C per GEMV pass, 30 to 58 passes at these ranks, and
	// no eigenproblem. So Gram takes the order-3 shapes (C = 100 at ranks
	// 10: 6.5x faster per solve) and order 4 at ranks 5 (C = 125: 1.75x,
	// now that the eigensolver builds only the R_n vectors it returns),
	// and Lanczos keeps the wide ones (C = 1000 at ranks 10: the
	// reduction alone takes ~0.35 s; C = 400 at order 3, ranks 20: Gram
	// is 1.6x slower per solve). Both sides of the rule are replicated, so
	// every rank of a distributed world resolves the same way.
	// Result.SVD reports the choice per mode; the README's "Solvers"
	// section has the measurements.
	SVDAuto SVDMethod = iota
	// SVDLanczos is Golub–Kahan–Lanczos bidiagonalization, the paper's
	// (SLEPc) method: matrix-free, one GEMV pass over Y_(n) per
	// operator application.
	SVDLanczos
	// SVDRandomized is the sketched range-finder solver
	// (trsvd.Randomized): a deterministic Gaussian panel through the
	// operator, adaptive power iterations, CholeskyQR2 Gram whitening,
	// and a projected small SVD — a handful of BLAS3 passes instead of
	// Lanczos's GEMV chain, at equal fit on the benchmark presets.
	// Options.Eps switches it to adaptive rank selection.
	SVDRandomized
	// SVDGram is the exact two-pass solver (trsvd.Gram): G = Y_(n)ᵀY_(n)
	// by a symmetric rank-k product, its R_n leading eigenvectors by a
	// serial tridiagonal eigensolver, U = Y_(n)·V·Σ⁻¹ by one GEMM.
	SVDGram
)

// gramMaxColsPerRank is SVDAuto's rule: the Gram solver runs on a mode
// whose matricized product has at most this many columns per requested
// singular vector. The benchmark's shapes sit at 10 and 25 on one side
// and at 100 on the other. At 25, Gram's C/2 + R = 13.5·R
// pass-equivalents per row are 2.2x Lanczos's ~6·R passes (31 at
// C = 125, R = 5) and still solve 1.75x faster: a BLAS3 pass outruns a
// GEMV pass ~4x here. At 32 the arithmetic ratio is 2.8x.
const gramMaxColsPerRank = 32

// gramMaxCols caps SVDAuto's Gram side on C alone, for Gram's serial
// O(C³) reduction and its C²/2 SYRK per row outgrow Lanczos's ~70
// passes of C however many vectors are wanted. Per solve at order 3 (ranks R, C =
// R², the scale-1 netflix and nell presets, 2 vCPUs), Gram against
// Lanczos: C = 256 at 18.5 / 18.9 ms and 24.3 / 30.4 ms, C = 289 at
// 23.6 / 21.4 and 32.4 / 39.3, C = 324 at 29.7 / 24.4 and 47.7 / 39.7.
const gramMaxCols = 256

// ResolveSVD turns SVDAuto into the solver that runs on a matricized
// product with cols columns of which rank singular vectors are wanted;
// an explicit choice is kept.
func ResolveSVD(m SVDMethod, cols, rank int) SVDMethod {
	if m != SVDAuto {
		return m
	}
	if cols <= gramMaxColsPerRank*rank && cols <= gramMaxCols {
		return SVDGram
	}
	return SVDLanczos
}

// svdNames spells the solvers the way cmd/hooi's -svd flag does,
// indexed by the SVDMethod value.
var svdNames = [...]string{
	SVDAuto:       "auto",
	SVDLanczos:    "lanczos",
	SVDRandomized: "rand",
	SVDGram:       "gram",
}

// ParseSVD maps a -svd flag spelling to its SVDMethod value.
func ParseSVD(s string) (SVDMethod, error) {
	for m, name := range svdNames {
		if s == name {
			return SVDMethod(m), nil
		}
	}
	return 0, fmt.Errorf("core: unknown svd solver %q (solvers: %s)", s, strings.Join(svdNames[:], " | "))
}

// String names the solver the way cmd/hooi's -svd flag spells it.
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
	// randomized solver, so SVD must be SVDAuto or SVDRandomized. Must
	// lie in (0, 1].
	Eps float64
	// MaxIters caps the number of ALS sweeps. 0 selects 50.
	MaxIters int
	// Tol stops the iteration when the fit improves by less than this
	// between sweeps. 0 selects 1e-5. Negative disables the test (run
	// exactly MaxIters sweeps), which the paper's benchmarks use.
	Tol float64
	// Threads bounds shared-memory parallelism; 0 uses GOMAXPROCS.
	Threads int
	// SVD selects the TRSVD solver: SVDAuto (the default) resolves per
	// mode to SVDGram or SVDLanczos from the mode's shape.
	SVD SVDMethod
	// TTMc selects the TTMc evaluation strategy: TTMcAuto (the default)
	// resolves at plan time to the flat reference path or the memoized
	// dimension tree.
	TTMc TTMcStrategy
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
}

func (o *Options) withDefaults() Options {
	out := *o
	if out.MaxIters == 0 {
		out.MaxIters = 50
	}
	if out.Tol == 0 {
		out.Tol = 1e-5
	}
	if out.Eps > 0 {
		out.SVD = SVDRandomized
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
	if int(o.SVD) < 0 || int(o.SVD) >= len(svdNames) {
		return fmt.Errorf("core: unknown SVD method %d", int(o.SVD))
	}
	if o.Eps > 0 && o.SVD != SVDAuto && o.SVD != SVDRandomized {
		return fmt.Errorf("core: Eps selects ranks with the randomized solver; it cannot be combined with SVD %v", o.SVD)
	}
	if int(o.TTMc) < 0 || int(o.TTMc) >= len(ttmcNames) {
		return fmt.Errorf("core: unknown ttmc strategy %d", int(o.TTMc))
	}
	if o.TTMc == TTMcDTree && x.Order() < 2 {
		return fmt.Errorf("core: the dimension tree needs a tensor of order 2 or more, got order %d", x.Order())
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
