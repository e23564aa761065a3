package core

import (
	"fmt"
	"io"
	"math"

	"hypertensor/internal/checkpoint"
	"hypertensor/internal/dense"
	"hypertensor/internal/tensor"
)

// EnableCheckpoints turns on sweep-boundary checkpointing for the
// engine's next solve: after every `every`-th completed sweep the engine
// atomically writes its resume state into dir (see package checkpoint
// for the format and retention policy). Passing every <= 0 or an empty
// dir disables checkpointing again. So does the end of the solve: a
// second Run starts from the first one's factors but numbers its sweeps
// from 1 again, and its checkpoints would overwrite the first solve's
// files of the same numbers, which resume as that solve. An Update that
// merges a delta ends it as well, before it converges: the merged tensor
// is not the one a plan rebuilt from the original input holds, so no
// checkpoint of it could be resumed.
func (e *Engine) EnableCheckpoints(dir string, every int) {
	e.ckptDir = dir
	e.ckptEvery = every
}

// OpenEngine builds an engine on p that checkpoints into dir every
// `every` sweeps, resumed from the newest usable checkpoint there (from,
// at sweep) or, when there is none, fresh. A checkpoint of another
// problem is an error wrapping checkpoint.ErrMismatch, with its path.
// Checkpointing covers the engine's first solve only (EnableCheckpoints):
// reopening dir afterwards resumes that solve, however many more Runs
// the engine made.
func OpenEngine(p *Plan, dir string, every int) (e *Engine, from string, sweep int, err error) {
	if dir != "" {
		// LoadLatest fails only when dir holds no usable checkpoint.
		if st, path, lerr := checkpoint.LoadLatest(dir); lerr == nil {
			if e, err = ResumeEngineState(p, st); err != nil {
				return nil, path, 0, err
			}
			from, sweep = path, st.Sweep
		}
	}
	if e == nil {
		e = NewEngine(p)
	}
	e.EnableCheckpoints(dir, every)
	return e, from, sweep, nil
}

// midRunState assembles the checkpoint view of the engine between two
// sweeps of converge. The slices alias live engine state — Encode
// consumes them immediately and does not retain them.
func (e *Engine) midRunState(sweep int, history []float64, g *tensor.Dense) *checkpoint.State {
	return &checkpoint.State{
		Sweep:      sweep,
		Step:       e.state.Step,
		SeedBase:   e.state.SeedBase,
		NormX:      e.normX,
		Factors:    e.state.Factors,
		Core:       g,
		FitHistory: history,
	}
}

// SnapshotState returns a deep copy of the engine's resume state as of
// the most recent Run/Update (or the initial factors before the first
// Run, U_0 zero unless Initial gave it). Resuming from it and calling
// Run re-issues the interrupted (or next) solve with a bitwise-identical
// fit trajectory.
func (e *Engine) SnapshotState() *checkpoint.State {
	s := &checkpoint.State{
		Step:     e.state.Step,
		SeedBase: e.state.SeedBase,
		NormX:    e.normX,
	}
	for _, f := range e.state.Factors {
		s.Factors = append(s.Factors, f.Clone())
	}
	if e.res != nil {
		s.Sweep = e.res.Iters
		s.FitHistory = append([]float64(nil), e.res.FitHistory...)
		if e.res.Core != nil {
			s.Core = e.res.Core.Clone()
		}
	}
	return s
}

// Snapshot serializes the engine's resume state to w in the checkpoint
// format. The contract: rebuild an equivalent Plan over the same
// tensor and options, ResumeEngine from these bytes, and the resumed
// solve's fit trajectory is bitwise identical to the one this engine
// would have produced. The tensor itself is not captured — the caller
// must rebuild the plan from equivalent input (the same canonical
// nonzeros).
func (e *Engine) Snapshot(w io.Writer) error {
	return checkpoint.Write(w, e.SnapshotState())
}

// ResumeEngine reads a checkpoint from r and reconstructs a resident
// Engine on p positioned to continue the interrupted solve: restored
// factors, seed-schedule position, and fit history.
// Call Run to converge the remaining sweeps; if the checkpointed
// trajectory had already stopped (by tolerance or MaxIters), Run
// returns the restored result without running further sweeps.
func ResumeEngine(p *Plan, r io.Reader) (*Engine, error) {
	st, err := checkpoint.Read(r)
	if err != nil {
		return nil, err
	}
	return ResumeEngineState(p, st)
}

// ResumeEngineState is ResumeEngine for an already-decoded state.
// The state is validated against the plan (mode count, factor shapes,
// seed, and a bitwise tensor-norm check that rejects resuming against
// a different tensor); st is copied, not retained.
func ResumeEngineState(p *Plan, st *checkpoint.State) (*Engine, error) {
	if err := validateState(p, st); err != nil {
		return nil, err
	}
	// The restored factors replace every initial one, so none is built.
	e := newEngine(p, nil, func() []*dense.Matrix {
		factors := make([]*dense.Matrix, len(st.Factors))
		for n, f := range st.Factors {
			factors[n] = f.Clone()
		}
		return factors
	})
	e.state.Step = st.Step
	rs := &checkpoint.State{
		Sweep:      st.Sweep,
		FitHistory: append([]float64(nil), st.FitHistory...),
	}
	if st.Core != nil {
		rs.Core = st.Core.Clone()
	}
	e.resume = rs
	return e, nil
}

// validateState rejects checkpoints that cannot continue this plan's
// solve bitwise identically. All failures wrap checkpoint.ErrMismatch.
func validateState(p *Plan, st *checkpoint.State) error {
	if st == nil {
		return fmt.Errorf("%w: nil state", checkpoint.ErrMismatch)
	}
	order := p.x.Order()
	if len(st.Factors) != order {
		return fmt.Errorf("%w: checkpoint has %d modes, plan has %d",
			checkpoint.ErrMismatch, len(st.Factors), order)
	}
	for n, f := range st.Factors {
		if f.Rows != p.x.Dims[n] {
			return fmt.Errorf("%w: mode %d has %d rows, tensor dim is %d",
				checkpoint.ErrMismatch, n, f.Rows, p.x.Dims[n])
		}
		if f.Cols < 1 || f.Cols > p.x.Dims[n] {
			return fmt.Errorf("%w: mode %d rank %d out of range",
				checkpoint.ErrMismatch, n, f.Cols)
		}
		if p.opts.Eps <= 0 && f.Cols != p.opts.Ranks[n] {
			return fmt.Errorf("%w: mode %d rank %d, plan wants %d",
				checkpoint.ErrMismatch, n, f.Cols, p.opts.Ranks[n])
		}
	}
	if st.SeedBase != p.opts.Seed {
		return fmt.Errorf("%w: checkpoint seed %d, plan seed %d",
			checkpoint.ErrMismatch, st.SeedBase, p.opts.Seed)
	}
	if math.Float64bits(st.NormX) != math.Float64bits(p.normX) {
		return fmt.Errorf("%w: tensor norm %v, plan tensor norm %v (different tensor?)",
			checkpoint.ErrMismatch, st.NormX, p.normX)
	}
	return nil
}
