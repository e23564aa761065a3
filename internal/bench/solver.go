package bench

import (
	"fmt"
	"io"

	"hypertensor/internal/core"
	"hypertensor/internal/tensor"
)

// solverEps is the fixed relative-error target the adaptive-rank cell
// runs at. The chosen ranks it yields are deterministic for a fixed
// dataset and seed, so the CI gate compares them against the committed
// baseline (with a small per-mode slack for spectrum rounding at the
// threshold).
const solverEps = 0.25

// epsRankSlack is the per-mode tolerance of the eps-ranks gate: the
// threshold crossing sits on a float compare, so a legitimate kernel
// change can move a borderline rank by one or two without the accuracy
// contract degrading.
const epsRankSlack = 2

// SolverCell is one dataset's randomized-vs-Lanczos TRSVD comparison,
// measured at identical ranks, sweeps, and threads on default options.
// Madds and |Δfit| are deterministic and gated against the committed
// baseline; the per-sweep TRSVD seconds follow the same
// host-fingerprint rules as the thread cells. EpsRanks records the
// per-mode ranks the adaptive-rank path (Options.Eps = solverEps)
// selects, a deterministic regression signal for the epsilon-truncation
// machinery.
type SolverCell struct {
	LanczosTRSVDSec float64 `json:"lanczos_trsvd_sec"`
	RandTRSVDSec    float64 `json:"rand_trsvd_sec"`
	LanczosMadds    int64   `json:"lanczos_madds"`
	RandMadds       int64   `json:"rand_madds"`
	// RandDFit is |fit(rand) - fit(lanczos)| after the full sweep budget.
	RandDFit float64 `json:"rand_dfit"`
	Eps      float64 `json:"eps"`
	EpsRanks []int   `json:"eps_ranks"`
}

// SolverCompare runs the two TRSVD solvers head to head on one tensor:
// a Lanczos solve and a randomized-sketch solve at the same ranks,
// sweep budget, seed, and thread count (TRSVD seconds min-of-reps, like
// every wall-clock measurement here), plus one adaptive-rank solve at
// Eps = solverEps to record the selected per-mode ranks.
func SolverCompare(x *tensor.COO, ranks []int, iters, reps, threads int, seed int64) (*SolverCell, error) {
	if reps < 1 {
		reps = 1
	}
	base := core.Options{
		Ranks:    ranks,
		MaxIters: iters,
		Tol:      -1,
		Threads:  threads,
		Seed:     seed,
	}
	cell := &SolverCell{Eps: solverEps}
	var fitLanczos, fitRand float64
	for _, method := range []core.SVDMethod{core.SVDLanczos, core.SVDRandomized} {
		opts := base
		opts.SVD = method
		best := -1.0
		for rep := 0; rep < reps; rep++ {
			r, err := core.Decompose(x, opts)
			if err != nil {
				return nil, fmt.Errorf("solver %v: %w", method, err)
			}
			sec := r.Timings.TRSVD.Seconds() / float64(r.Iters)
			if best < 0 || sec < best {
				best = sec
			}
			switch method {
			case core.SVDLanczos:
				fitLanczos = r.Fit
				cell.LanczosMadds = r.TRSVDMadds
			default:
				fitRand = r.Fit
				cell.RandMadds = r.TRSVDMadds
			}
		}
		switch method {
		case core.SVDLanczos:
			cell.LanczosTRSVDSec = best
		default:
			cell.RandTRSVDSec = best
		}
	}
	cell.RandDFit = fitRand - fitLanczos
	if cell.RandDFit < 0 {
		cell.RandDFit = -cell.RandDFit
	}

	// Adaptive rank: cap each mode a little above the fixed rank so the
	// eps run stays bounded while leaving the selector free to land
	// above or below the paper rank.
	caps := make([]int, len(ranks))
	for n, r := range ranks {
		caps[n] = r + 8
		if caps[n] > x.Dims[n] {
			caps[n] = x.Dims[n]
		}
	}
	opts := base
	opts.Ranks = caps
	opts.Eps = solverEps
	r, err := core.Decompose(x, opts)
	if err != nil {
		return nil, fmt.Errorf("solver eps=%g: %w", solverEps, err)
	}
	cell.EpsRanks = append([]int(nil), r.ChosenRanks...)
	return cell, nil
}

// Solver runs the randomized-vs-Lanczos comparison standalone on every
// preset dataset at the sweep's largest thread count (`htbench
// -solver`), printing the same table the scaling report embeds.
func Solver(o Options, w io.Writer) ([]*SolverCell, error) {
	o = o.withDefaults()
	rep := &ScalingReport{}
	var cells []*SolverCell
	for _, name := range []string{"netflix", "nell", "delicious", "flickr"} {
		x, err := dataset(name, o.Scale)
		if err != nil {
			return nil, err
		}
		cell, err := SolverCompare(x, ranksFor(x), o.Iters, o.Reps, maxInt(o.Threads), o.Seed+31)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		cells = append(cells, cell)
		rep.Rows = append(rep.Rows, ScalingRow{Dataset: name, Solver: cell})
	}
	renderSolverTable(rep, w)
	return cells, nil
}

// renderSolverTable prints the per-dataset solver comparison rows of a
// scaling report.
func renderSolverTable(rep *ScalingReport, w io.Writer) {
	t := &Table{
		Title:   "TRSVD solver comparison: randomized sketch vs Lanczos (same ranks, sweeps, threads)",
		Headers: []string{"Tensor", "lanczos s", "rand s", "speedup", "lanczos madds", "rand madds", "|dfit|", "eps", "eps ranks"},
	}
	for _, row := range rep.Rows {
		s := row.Solver
		if s == nil {
			continue
		}
		speedup := ""
		if s.RandTRSVDSec > 0 {
			speedup = fmt.Sprintf("%.2fx", s.LanczosTRSVDSec/s.RandTRSVDSec)
		}
		t.AddRow(row.Dataset, secs(s.LanczosTRSVDSec), secs(s.RandTRSVDSec), speedup,
			humanCount(s.LanczosMadds), humanCount(s.RandMadds),
			fmt.Sprintf("%.2e", s.RandDFit), fmt.Sprintf("%g", s.Eps), fmt.Sprintf("%v", s.EpsRanks))
	}
	t.Render(w)
}
