package dist

import (
	"context"

	"hypertensor/internal/core"
	"hypertensor/internal/dense"
	"hypertensor/internal/mpi"
	"hypertensor/internal/tensor"
)

// denseExchange is the exchange the communication plans replaced, kept
// as the bitwise oracle: the same fold buffers through a dense
// AllToAllV (empty frames to every non-sharer), and every factor fully
// replicated by an AllGatherV after each solve, so that every rank
// receives every row. It shares the plans' packing and summation order
// with the production exchange and nothing of how rows travel.
type denseExchange struct{ *exchange }

func (d denseExchange) Fold(n int, y *dense.Matrix, rows []int32) (*dense.Matrix, []int32) {
	if d.grain == Coarse {
		return d.exchange.Fold(n, y, rows)
	}
	m := &d.modes[n]
	d.packFold(n, y)
	b0 := d.c.BytesSent()
	recv := d.c.AllToAllV(m.foldBuf)
	m.foldBytes += d.c.BytesSent() - b0
	d.sumFold(m, y, recv)
	return m.yOwn, m.owned
}

func (d denseExchange) Expand(n int, factor *dense.Matrix) {
	b0 := d.c.BytesSent()
	d.assemble(n, factor)
	d.modes[n].expandBytes += d.c.BytesSent() - b0
}

// Sync has nothing to assemble: the factors are replicated throughout.
func (d denseExchange) Sync(_ []*dense.Matrix, persist func() error) error {
	if persist != nil && d.me == 0 {
		if err := persist(); err != nil {
			return err
		}
	}
	d.c.Barrier()
	return nil
}

// decomposeDense is Decompose over the dense oracle exchange.
func decomposeDense(x *tensor.COO, part *Partition, cfg Config) (*Result, error) {
	return decompose(context.Background(), mpi.NewWorld(part.P), x, part, cfg,
		seam{wrap: func(ex *exchange) core.Exchange { return denseExchange{ex} }})
}
