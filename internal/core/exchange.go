package core

import (
	"hypertensor/internal/dense"
	"hypertensor/internal/trsvd"
)

// Exchange is everything the paper's distributed HOOI (Algorithm 4)
// adds to the shared-memory sweep (Algorithm 3): a fold after the TTMc,
// a row-distributed TRSVD operator, an expand after the solve, a
// reduction of the core, and replicated factors where a complete copy
// is needed. Engine.converge is the one sweep loop; it calls these at
// the places the two algorithms differ, and a shared-memory run is the
// one-rank world in which every call is local.
//
// Within a mode the calls come in the order Fold, Operator, Expand;
// every rank of a world makes the same calls in the same order, so an
// implementation may enter collectives in any of them.
type Exchange interface {
	// BeginSweep runs at the top of each sweep with its 1-based number.
	BeginSweep(sweep int)
	// Fold completes the rows of Y_(n) this rank solves. y holds one
	// locally computed row per slice in rows (ascending mode-n indices);
	// the result holds the rows this rank owns with every other rank's
	// partial sums added in, and their slice indices. It runs inside the
	// TTMc timer. y is a view of the one buffer all modes' products
	// share: it holds until the next mode's TTMc (the last mode's until
	// the core is formed), and so does a result that is y itself. A
	// matrix of the exchange's own stays valid until the next Fold of
	// the same mode.
	Fold(n int, y *dense.Matrix, rows []int32) (*dense.Matrix, []int32)
	// Operator wraps the folded rows as the TRSVD operator whose
	// column-space results every rank receives identically.
	Operator(n int, y *dense.Matrix) trsvd.Operator
	// Expand moves freshly solved factor rows between ranks: on entry
	// factor holds this rank's owned rows of U_n, on return also every
	// row its local nonzeros reference. It runs inside the TRSVD timer.
	Expand(n int, factor *dense.Matrix)
	// ReduceCore sums the core partial g over all ranks in place,
	// element by element.
	ReduceCore(g []float64)
	// Sync completes every factor on every rank, lets exactly one rank
	// run persist (when non-nil) on that replicated state, and holds all
	// ranks until it is durable. It closes every checkpointed sweep and
	// every run.
	Sync(factors []*dense.Matrix, persist func() error) error
}

// localExchange is the one-rank world: all rows are local and owned, so
// nothing moves, and its one threaded dense operator is rebound per mode,
// keeping its kernels' state.
type localExchange struct {
	threads int
	op      trsvd.DenseOperator
}

func (*localExchange) BeginSweep(int) {}

func (*localExchange) Fold(_ int, y *dense.Matrix, rows []int32) (*dense.Matrix, []int32) {
	return y, rows
}

func (l *localExchange) Operator(_ int, y *dense.Matrix) trsvd.Operator {
	l.op.A, l.op.Threads, l.op.Kron = y, l.threads, nil
	return &l.op
}

func (*localExchange) Expand(int, *dense.Matrix) {}

func (*localExchange) ReduceCore([]float64) {}

func (*localExchange) Sync(_ []*dense.Matrix, persist func() error) error {
	if persist == nil {
		return nil
	}
	return persist()
}
