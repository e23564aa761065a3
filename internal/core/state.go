package core

import (
	"math"

	"hypertensor/internal/dense"
	"hypertensor/internal/trsvd"
)

// SweepState is the resident per-mode numeric state the Engine carries
// between sweeps, in shared memory and on every rank of a distributed
// world: the factor matrices, one reusable TRSVD workspace arena, and
// the monotone TRSVD seed schedule.
type SweepState struct {
	// Factors are the current factor matrices U_n (I_n x R_n).
	Factors []*dense.Matrix
	// Work is the TRSVD workspace every mode's solve reuses. The modes
	// solve one after another and a workspace is scratch only, so one
	// arena at the widest mode's size serves them all: after the first
	// sweep the iteration loops allocate (almost) nothing, and the Gram
	// solver's block partials (32 x C² doubles) are held once, not once
	// per mode.
	Work *trsvd.Workspace
	// SeedBase is the decomposition seed; solve s draws start vectors
	// from SeedBase + 7919*s.
	SeedBase int64
	// Step counts completed mode solves across the state's lifetime, so
	// re-convergence sweeps after an update keep drawing fresh
	// deterministic seeds instead of replaying the first sweep's.
	Step int64
	// SolveCounts accumulates over the state's lifetime.
	SolveCounts
}

// SolveCounts is what Solve keeps count of: the mode solves, their
// sweeps over Y_(n) (two per Gram solve, one per operator application
// of a Lanczos solve), their multiply-adds on this rank's rows, and the
// solves that ran into the Krylov dimension cap without meeting the
// tolerance.
type SolveCounts struct {
	Solves, Passes, Madds, Unconverged int64
}

// NewSweepState wraps initial factors (owned by the state from here on)
// with a fresh workspace.
func NewSweepState(factors []*dense.Matrix, seed int64) *SweepState {
	return &SweepState{Factors: factors, Work: trsvd.NewWorkspace(), SeedBase: seed}
}

// next builds the options of the upcoming solve and advances the seed
// schedule.
func (s *SweepState) next(warm []float64) trsvd.Options {
	o := trsvd.Options{Seed: s.SeedBase + 7919*s.Step, Work: s.Work, WarmLeft: warm}
	s.Step++
	return o
}

// Solve runs the TRSVD solver the method resolves to on mode n's
// operator (ResolveSVD, from the operator's column count and the rank:
// the one place SVDAuto is decided, for the engine in shared memory and
// on every rank of a distributed world alike) —
// the threaded dense operator in shared memory, a row-distributed one
// on a rank of a distributed world — and advances the seed schedule and
// the solve counters. warm optionally supplies a left warm-start vector
// (Lanczos only; see trsvd.Options.WarmLeft).
func (s *SweepState) Solve(op trsvd.Operator, n, rank int, method SVDMethod, warm []float64) (*trsvd.Result, error) {
	sopts := s.next(warm)
	method = ResolveSVD(method, op.Cols(), rank)
	var r *trsvd.Result
	var err error
	switch method {
	case SVDGram:
		r, err = trsvd.Gram(op, rank, sopts)
	case SVDRandomized:
		r, err = trsvd.Randomized(op, rank, sopts)
	default:
		r, err = trsvd.Lanczos(op, rank, sopts)
	}
	if err != nil {
		return nil, err
	}
	rows, cols := int64(op.LocalRows()), int64(op.Cols())
	madds := int64(r.MatVecs) * rows * cols
	if method == SVDGram {
		// The upper triangle of YᵀY, then Y·(V·Σ⁻¹).
		madds = rows * (cols*(cols+1)/2 + cols*int64(rank))
	}
	s.Solves++
	s.Passes += int64(r.Passes)
	s.Madds += madds
	if !r.Converged {
		s.Unconverged++
	}
	return r, nil
}

// SolveDense is Solve on the compacted matricized tensor held in
// memory: it returns the |J_n| x rank left singular vector block and
// the solver's operator-application count.
func (s *SweepState) SolveDense(y *dense.Matrix, n, rank int, method SVDMethod, threads int, warm []float64) (*dense.Matrix, int, error) {
	r, err := s.Solve(&trsvd.DenseOperator{A: y, Threads: threads}, n, rank, method, warm)
	if err != nil {
		return nil, 0, err
	}
	return r.U, r.MatVecs, nil
}

// SolveDenseEps runs the randomized solver with epsilon-truncation
// adaptive rank: starting from the guess (typically the mode's previous
// rank), the sketch grows geometrically until the sketched spectrum
// crosses the per-mode threshold tau = eps²·‖X‖²/N or the cap is hit,
// and the rank is the number of retained directions (trsvd.
// EpsRankSelect). frob2 is ‖Y_(n)‖²_F, the energy budget the tail is
// measured against. Returns the compacted rank-column basis, the chosen
// rank, and the accumulated operator-application count.
func (s *SweepState) SolveDenseEps(y *dense.Matrix, n, guess, capR, threads int, tau, frob2 float64) (*dense.Matrix, int, int, error) {
	maxR := y.Cols
	if y.Rows < maxR {
		maxR = y.Rows
	}
	if capR > 0 && capR < maxR {
		maxR = capR
	}
	if maxR < 1 {
		maxR = 1
	}
	k := guess
	if k < 1 {
		k = 1
	}
	if k > maxR {
		k = maxR
	}
	matvecs := 0
	for {
		r, err := s.Solve(&trsvd.DenseOperator{A: y, Threads: threads}, n, k, SVDRandomized, nil)
		if err != nil {
			return nil, 0, 0, err
		}
		matvecs += r.MatVecs
		rank, grow := trsvd.EpsRankSelect(r.Sigma, frob2, tau)
		if rank > maxR {
			rank = maxR
		}
		if !grow || k >= maxR {
			if rank == r.U.Cols {
				return r.U, rank, matvecs, nil
			}
			u := dense.NewMatrix(r.U.Rows, rank)
			for i := 0; i < u.Rows; i++ {
				copy(u.Row(i), r.U.Row(i)[:rank])
			}
			return u, rank, matvecs, nil
		}
		k *= 2
		if k > maxR {
			k = maxR
		}
	}
}

// fitTracker accumulates the per-sweep fit trajectory and implements
// the shared stopping rule: stop when the fit improves by less than tol
// between sweeps (tol <= 0 never stops early).
type fitTracker struct {
	normX, tol float64
	history    []float64
	prev       float64
}

// newFitTracker starts a trajectory for a tensor of the given norm.
func newFitTracker(normX, tol float64) *fitTracker {
	return &fitTracker{normX: normX, tol: tol, prev: math.Inf(-1)}
}

// Record appends the sweep's fit (computed from the core norm via
// FitFromNorms) and reports whether the iteration should stop.
func (f *fitTracker) Record(normG float64) (fit float64, stop bool) {
	fit = FitFromNorms(f.normX, normG)
	f.history = append(f.history, fit)
	stop = f.tol > 0 && math.Abs(fit-f.prev) < f.tol
	f.prev = fit
	return fit, stop
}

// Restore preseeds the tracker with the fit history of an interrupted
// run, so the next Record extends the trajectory exactly as the
// uninterrupted run would have: the comparison baseline is the last
// restored fit (or -Inf when the history is empty).
func (f *fitTracker) Restore(history []float64) {
	f.history = append(f.history[:0], history...)
	f.prev = math.Inf(-1)
	if n := len(f.history); n > 0 {
		f.prev = f.history[n-1]
	}
}

// Stopped re-derives the stopping decision from the restored history:
// true when the last two fits already satisfied the stopping rule. A
// resumed loop must then run no further sweeps — the uninterrupted run
// stopped at exactly that sweep.
func (f *fitTracker) Stopped() bool {
	n := len(f.history)
	return f.tol > 0 && n >= 2 && math.Abs(f.history[n-1]-f.history[n-2]) < f.tol
}

// FitFromNorms computes 1 - ||X - X̂||/||X|| using the orthonormality
// identity ||X - X̂||² = ||X||² - ||G||² (the paper's convergence
// measure, Algorithm 1 line 7).
func FitFromNorms(normX, normG float64) float64 {
	diff := normX*normX - normG*normG
	if diff < 0 {
		diff = 0 // rounding: G cannot exceed X in norm
	}
	if normX == 0 {
		return 1
	}
	return 1 - math.Sqrt(diff)/normX
}
