package core

import (
	"time"

	"hypertensor/internal/symbolic"
	"hypertensor/internal/tensor"
)

// Plan is the immutable per-tensor analysis of a decomposition: the
// validated options, the storage-format build (CSF or ALTO conversion
// when requested), the symbolic update lists, and the tensor norm.
// Everything in a Plan is a pure function of (tensor, options) and is
// never mutated afterwards, so one Plan can back any number of Engines
// — the resident handles that own the mutable factor state and ingest
// deltas. Decompose is NewPlan + NewEngine + Run.
type Plan struct {
	opts Options
	x    *tensor.COO // the caller's tensor; engines clone before mutating

	csf     *tensor.CSF
	alto    *tensor.ALTO
	storage tensor.Sparse
	sym     *symbolic.Structure
	normX   float64
	// ex is the world a rank plan converges in (NewRankPlan); nil is
	// shared memory.
	ex Exchange

	convertTime  time.Duration
	symbolicTime time.Duration
}

// NewPlan validates the options and performs the one-time symbolic
// setup for x: storage-format construction, norm, and per-mode update
// lists. x is not copied — it must not be mutated while plans or
// engines built from it are in use (engines clone it lazily before
// their first Update, so Engine.Update never mutates the caller's
// tensor).
func NewPlan(x *tensor.COO, optsIn Options) (*Plan, error) {
	if err := optsIn.Validate(x); err != nil {
		return nil, err
	}
	p := buildPlan(x, optsIn.withDefaults(), nil)
	p.normX = p.storage.Norm(p.opts.Threads)
	return p, nil
}

// NewRankPlan is the plan of one rank of a distributed world: x holds
// only the rank's local nonzeros — possibly none, on a rank that must
// still enter every collective — so opts are the caller's to validate
// against the whole tensor, and normX is the whole tensor's norm, which
// the fit is measured against. sym, when non-nil, is the symbolic
// structure of x for a FormatCOO plan (a coarse-grain rank restricts
// its lists to the slices it owns); otherwise the plan derives its own.
// Engines built on the plan converge through ex.
func NewRankPlan(x *tensor.COO, opts Options, normX float64, sym *symbolic.Structure, ex Exchange) *Plan {
	p := buildPlan(x, opts.withDefaults(), sym)
	p.normX = normX
	p.ex = ex
	return p
}

func buildPlan(x *tensor.COO, opts Options, sym *symbolic.Structure) *Plan {
	p := &Plan{opts: opts, x: x, storage: x}
	start := time.Now()
	switch opts.Format {
	case FormatCSF:
		p.csf = tensor.NewCSF(x, tensor.CSFOptions{ModeOrder: opts.CSFModeOrder, Threads: opts.Threads})
		p.storage = p.csf
	case FormatALTO:
		p.alto = tensor.NewALTO(x, tensor.ALTOOptions{Threads: opts.Threads})
		p.storage = p.alto
	}
	if opts.Format != FormatCOO {
		p.convertTime = time.Since(start)
		sym = nil // a converted storage numbers its nonzeros its own way
	}
	start = time.Now()
	if sym == nil {
		sym = symbolic.Build(p.storage, opts.Threads)
	}
	p.sym = sym
	p.symbolicTime = time.Since(start)
	return p
}

// Options returns a copy of the validated options (defaults applied).
func (p *Plan) Options() Options { return p.opts }

// Format reports the storage layout the plan was built for.
func (p *Plan) Format() Format { return p.opts.Format }

// IndexBytes reports the index storage of the plan's layout.
func (p *Plan) IndexBytes() int64 { return p.storage.IndexBytes() }
