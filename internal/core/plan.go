package core

import (
	"time"

	"hypertensor/internal/symbolic"
	"hypertensor/internal/tensor"
	"hypertensor/internal/ttm"
)

// Plan is the immutable per-tensor analysis of a decomposition: the
// validated options with the TTMc strategy resolved, the symbolic update
// lists, and the tensor norm.
// Everything in a Plan is a pure function of (tensor, options) and is
// never mutated afterwards, so one Plan can back any number of Engines,
// at once — the resident handles that own the mutable factor state and
// ingest deltas. What a kernel derives from the lists (index streams,
// chain partitions, the singleton census) each engine's kernel builds
// and keeps on its own copies of the mode headers (ttm.BuildFlat).
// Decompose is NewPlan + NewEngine + Run.
type Plan struct {
	opts Options
	x    *tensor.COO // the caller's tensor; engines clone before mutating

	// sym holds the per-mode update lists the flat kernel runs on, read
	// only. It is nil under the dimension tree, which groups the nonzeros
	// its own way (in the engine, next to its caches) and reads none of
	// them.
	sym   *symbolic.Structure
	normX float64
	// ex is the world a rank plan converges in (NewRankPlan); nil is
	// shared memory.
	ex Exchange

	symbolicTime time.Duration
}

// NewPlan validates the options and performs the one-time symbolic
// setup for x: norm and per-mode update lists. x is not copied — it
// must not be mutated while plans or engines built from it are in use
// (engines clone it lazily before their first Update, so Engine.Update
// never mutates the caller's tensor).
func NewPlan(x *tensor.COO, optsIn Options) (*Plan, error) {
	if err := optsIn.Validate(x); err != nil {
		return nil, err
	}
	p := buildPlan(x, optsIn.withDefaults(), nil)
	p.normX = x.Norm(p.opts.Threads)
	return p, nil
}

// NewRankPlan is the plan of one rank of a distributed world: x holds
// only the rank's local nonzeros — possibly none, on a rank that must
// still enter every collective — so opts are the caller's to validate
// against the whole tensor, and normX is the whole tensor's norm, which
// the fit is measured against. sym, when non-nil, is the symbolic
// structure of x (a coarse-grain rank restricts its lists to the slices
// it owns); otherwise the plan derives its own.
// Engines built on the plan converge through ex.
func NewRankPlan(x *tensor.COO, opts Options, normX float64, sym *symbolic.Structure, ex Exchange) *Plan {
	p := buildPlan(x, opts.withDefaults(), sym)
	p.normX = normX
	p.ex = ex
	return p
}

func buildPlan(x *tensor.COO, opts Options, sym *symbolic.Structure) *Plan {
	opts.ttmc = resolveTTMc(opts.ttmc, x, sym)
	p := &Plan{opts: opts, x: x}
	start := time.Now()
	if sym == nil && opts.ttmc != TTMcDTree {
		sym = symbolic.Build(x, opts.Threads)
	}
	p.sym = sym
	p.symbolicTime = time.Since(start)
	return p
}

// resolveTTMc turns TTMcAuto into the strategy the plan runs; a pinned
// strategy is kept. The tree earns its memo nodes from order 4
// up; on order 3 the flat kernel's run factoring takes less time than
// the tree (ttm.flat_s 0.038 against ttm.dtree_s 0.054 on netflix3) and
// holds no memo. A rank's local tensor may be empty, and sym — a rank
// plan's caller-supplied update lists — may leave out nonzeros of
// slices the rank does not own: the tree can run neither.
func resolveTTMc(s TTMcStrategy, x *tensor.COO, sym *symbolic.Structure) TTMcStrategy {
	if s != TTMcAuto {
		return s
	}
	if x.Order() < 4 || x.NNZ() == 0 {
		return TTMcFlat
	}
	if sym != nil {
		for n := range sym.Modes {
			if len(sym.Modes[n].NZ) != x.NNZ() {
				return TTMcFlat
			}
		}
	}
	return TTMcDTree
}

// Options returns a copy of the validated options (defaults applied).
func (p *Plan) Options() Options { return p.opts }

// TTMc reports the TTMc strategy the plan runs.
func (p *Plan) TTMc() TTMcStrategy { return p.opts.ttmc }

// PredictSweepMadds returns the TTMc multiply-adds of one steady-state
// sweep of x at the given ranks under each strategy, where the modes a
// default engine splits (its census of the Gram-solved modes; the
// tree's from order 4 up, treeSplits) write each singleton row
// compactly: an accumulator update per nonzero and a row update per run
// of x's update lists, summed over the modes, for the flat path; parent
// entries times block size, summed over the nodes, for the dimension
// tree (0 below order 2, where there is none). It is
// what the plan's rule should agree with; counting runs and tree entries
// costs one symbolic build each.
func PredictSweepMadds(x *tensor.COO, ranks []int, threads int) (flat, tree int64) {
	k := ttm.NewFlat(x, symbolic.Build(x, threads))
	takeCensus(k, ranks, SVDAuto)
	flat = k.SweepFlops(ranks)
	if x.Order() >= 2 && x.NNZ() > 0 {
		t := ttm.BuildDTree(x, threads)
		if treeSplits(x.Order()) {
			takeCensus(t, ranks, SVDAuto)
		}
		tree = t.SweepFlops(ranks)
	}
	return flat, tree
}
