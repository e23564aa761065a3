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
	// solve one after another and no solve reads what an earlier one left
	// in the workspace, so one arena at the widest mode's size serves
	// them all: after the first sweep a solve allocates only its Result,
	// and the Gram solver's block partials (32 x C² doubles) are held
	// once, not once per mode. It also holds each solve's U, which the
	// engine scatters before the next solve overwrites it.
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
	// op is SolveDense's and SolveDenseEps's operator, rebound per call
	// so that its kernels' state outlives the call.
	op trsvd.DenseOperator
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

// Solve runs the TRSVD solver the method resolves to on an operator
// over a mode's Y_(n) (ResolveSVD, from the operator's column count and
// the rank) — the threaded dense operator in shared memory, a
// row-distributed one on a rank of a distributed world — and advances
// the seed schedule and the solve counters. The result is a function of
// the operator, the rank and the seed schedule's position alone: no
// solve reads what an earlier one computed. Its U is the state's
// workspace's and valid until the next solve, which overwrites it.
func (s *SweepState) Solve(op trsvd.Operator, rank int, method SVDMethod) (*trsvd.Result, error) {
	sopts := trsvd.Options{Seed: s.SeedBase + 7919*s.Step, Work: s.Work}
	s.Step++
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
		// YᵀY and Y·(V·Σ⁻¹) as the operator runs them.
		madds = trsvd.GramMadds(op) + trsvd.MatMatMadds(op, rank)
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
// the solver's operator-application count. The block is the
// workspace's, valid until the next solve. The mode n and the warm
// vector are ignored; the signature is the one the repository
// benchmark compiles against.
func (s *SweepState) SolveDense(y *dense.Matrix, n, rank int, method SVDMethod, threads int, warm []float64) (*dense.Matrix, int, error) {
	s.op.A, s.op.Threads = y, threads
	r, err := s.Solve(&s.op, rank, method)
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
// rank, and the accumulated operator-application count. The basis is
// the last solve's U, cut to rank columns in place, and like it valid
// until the next solve. The cut is why this runs the randomized solver:
// its columns are ordered by singular value, where a Gram U after its
// orthogonality repair is rotated within the leading subspace, and its
// first rank columns are the wrong directions (trsvd.Result).
func (s *SweepState) SolveDenseEps(y *dense.Matrix, guess, capR, threads int, tau, frob2 float64) (*dense.Matrix, int, int, error) {
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
	s.op.A, s.op.Threads = y, threads
	for {
		r, err := s.Solve(&s.op, k, SVDRandomized)
		if err != nil {
			return nil, 0, 0, err
		}
		matvecs += r.MatVecs
		rank, grow := trsvd.EpsRankSelect(r.Sigma, frob2, tau)
		if rank > maxR {
			rank = maxR
		}
		if !grow || k >= maxR {
			u := r.U
			if rank == u.Cols {
				return u, rank, matvecs, nil
			}
			// Row i moves down to i·rank, never past where it is read from.
			for i := 1; i < u.Rows; i++ {
				copy(u.Data[i*rank:(i+1)*rank], u.Row(i)[:rank])
			}
			return &dense.Matrix{Rows: u.Rows, Cols: rank, Data: u.Data[:u.Rows*rank]}, rank, matvecs, nil
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
