package core

import (
	"fmt"
	"strings"

	"hypertensor/internal/dense"
	"hypertensor/internal/tensor"
	"hypertensor/internal/trsvd"
)

// InitMethod selects how the factor matrices are initialized (HOOI
// Algorithm 1, line 1).
type InitMethod int

const (
	// InitRandom draws Gaussian matrices and orthonormalizes them.
	InitRandom InitMethod = iota
	// InitHOSVD uses a single-pass randomized range finder on each
	// sparse matricization X_(n): U_n = orth(X_(n)·Ω). This is the
	// practical sparse stand-in for the higher-order SVD start the
	// paper mentions; the exact HOSVD would require singular vectors of
	// matrices with ∏_{t≠n} I_t columns, which is exactly what
	// §III.A.2 rules out.
	InitHOSVD
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

// ttmcNames spells the strategies the way cmd/hooi's -ttmc flag does,
// indexed by the TTMcStrategy value.
var ttmcNames = [...]string{
	TTMcAuto:  "auto",
	TTMcFlat:  "flat",
	TTMcDTree: "dtree",
}

// ParseTTMc maps a -ttmc flag spelling to its TTMcStrategy value.
func ParseTTMc(s string) (TTMcStrategy, error) {
	for t, name := range ttmcNames {
		if s == name {
			return TTMcStrategy(t), nil
		}
	}
	return 0, fmt.Errorf("core: unknown ttmc strategy %q (strategies: %s)", s, strings.Join(ttmcNames[:], " | "))
}

// String names the strategy the way cmd/hooi's -ttmc flag spells it.
func (t TTMcStrategy) String() string {
	if int(t) < 0 || int(t) >= len(ttmcNames) {
		return fmt.Sprintf("TTMcStrategy(%d)", int(t))
	}
	return ttmcNames[t]
}

// SVDMethod selects the truncated SVD solver used for the TRSVD step.
type SVDMethod int

const (
	// SVDLanczos is Golub–Kahan–Lanczos bidiagonalization, the paper's
	// (SLEPc) method and the default.
	SVDLanczos SVDMethod = iota
	// SVDRandomized is the sketched range-finder solver
	// (trsvd.Randomized): a deterministic Gaussian or CountSketch panel
	// through the operator, power iterations, CholeskyQR2 Gram
	// whitening, and a projected small SVD — a handful of BLAS3 passes
	// instead of Lanczos's GEMV chain, at equal fit on the benchmark
	// presets. Options.Eps switches it to adaptive rank selection.
	SVDRandomized
)

// SketchKind re-exports trsvd.SketchKind for Options.Sketch.
type SketchKind = trsvd.SketchKind

const (
	// SketchGauss is the dense counter-based pseudo-Gaussian sketch
	// (the default).
	SketchGauss = trsvd.SketchGauss
	// SketchCount is the one-nonzero-per-row CountSketch.
	SketchCount = trsvd.SketchCount
)

// Options configure a Tucker/HOOI decomposition.
type Options struct {
	// Ranks holds the target rank R_n per mode. Required for fixed-rank
	// runs; optional under Eps, where it caps the adaptive per-mode
	// ranks.
	Ranks []int
	// Eps, when positive, switches to adaptive (epsilon-truncation) rank
	// selection: each mode's rank is chosen from the sketched spectrum
	// so the estimated tail energy stays below the per-mode threshold
	// eps²·‖X‖²/N (the BTAS threshold split), growing the sketch
	// geometrically until the bound is certified. The decomposition then
	// satisfies ‖X − X̂‖ ≲ eps·‖X‖. Implies SVDRandomized. Must lie in
	// (0, 1].
	Eps float64
	// Sketch selects the randomized solver's sketching operator
	// (SketchGauss by default; SVDRandomized and Eps runs only).
	Sketch SketchKind
	// Oversample adds extra sketch columns beyond the target rank in the
	// randomized solver (0 selects 8).
	Oversample int
	// PowerIters caps the randomized solver's power-iteration rounds
	// (0 selects 6, negative selects none); the solver stops below the
	// cap as soon as its Ritz energies settle.
	PowerIters int
	// MaxIters caps the number of ALS sweeps. 0 selects 50.
	MaxIters int
	// Tol stops the iteration when the fit improves by less than this
	// between sweeps. 0 selects 1e-5. Negative disables the test (run
	// exactly MaxIters sweeps), which the paper's benchmarks use.
	Tol float64
	// Threads bounds shared-memory parallelism; 0 uses GOMAXPROCS.
	Threads int
	// Init selects the factor initialization.
	Init InitMethod
	// SVD selects the TRSVD solver.
	SVD SVDMethod
	// TTMc selects the TTMc evaluation strategy: TTMcAuto (the default)
	// resolves at plan time to the flat reference path or the memoized
	// dimension tree.
	TTMc TTMcStrategy
	// Seed makes the whole decomposition deterministic.
	Seed int64
	// MeasureAllocs records the steady-state heap allocation count per
	// sweep in Result.AllocsPerSweep (two runtime.ReadMemStats calls per
	// decomposition). Off by default; the benchmark harness turns it on.
	MeasureAllocs bool
	// Initial optionally supplies explicit initial factor matrices
	// (I_n x R_n), overriding Init — used for warm starts and for
	// equivalence testing against the distributed algorithm. The
	// matrices are copied, not mutated.
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
	if o.SVD != SVDLanczos && o.SVD != SVDRandomized {
		return fmt.Errorf("core: unknown SVD method %d", int(o.SVD))
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
