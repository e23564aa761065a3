package dist

import (
	"fmt"

	"hypertensor/internal/core"
	"hypertensor/internal/dense"
	"hypertensor/internal/mpi"
	"hypertensor/internal/symbolic"
	"hypertensor/internal/tensor"
	"hypertensor/internal/trsvd"
	"hypertensor/internal/ttm"
)

// exchange is one rank's side of Algorithm 4: the local nonzeros, the
// precomputed point-to-point communication plans of every mode, and the
// plan-sized buffers they move through. It implements core.Exchange, so
// the rank's sweep is core.Engine.converge itself; everything here is
// either setup or one of the calls that loop makes.
type exchange struct {
	c     *mpi.Comm
	me    int
	grain Grain
	fault func(rank, sweep int)
	xloc  *tensor.COO
	lsym  *symbolic.Structure
	// sym is what the rank's star (ttm.BuildFlat) runs on: all of lsym
	// under the fine grain, and under the coarse grain only the update
	// lists of the owned slices — the local tensor also stores nonzeros held
	// through other modes, and computing their rows would raise the
	// rank's TTMc work for nothing (Algorithm 4 lines 3-4).
	sym   *symbolic.Structure
	modes []exchangeMode
	// Payload sent outside the per-mode phases, over the whole run.
	coreBytes, assembleBytes int64
}

// exchangeMode is one mode's precomputed plans and buffers.
type exchangeMode struct {
	owned    []int32 // global slice ids owned by this rank, ascending
	ownedPos []int32 // position of each owned slice in lsym's row list
	allOwned [][]int32
	// The expand plan (see expandPlan): expSend[d] lists indices into
	// owned whose updated factor rows rank d's nonzeros reference;
	// expRecv[s] lists the global row ids arriving from owner s. Both
	// ascend in global id, so sender and receiver agree on buffer order
	// with no index traffic. expSrc and expDst list the ranks with a
	// non-empty expRecv and expSend — the actual sharers, which is all
	// the exchange talks to.
	//
	// The fine-grain fold runs the same plan backwards: a rank references
	// row i exactly when it holds a partial of Y_(n)(i,:), so partials
	// travel to the owners along expRecv and arrive along expSend.
	expSend [][]int32
	expRecv [][]int32
	expSrc  []int
	expDst  []int
	// yOwn holds the fully folded owned rows (fine grain; a coarse rank
	// computes its owned rows complete). foldBuf[d], expBuf[d] and gather
	// are the send buffers of the fold, the expand and the assembly,
	// sized by the plans once: the transport copies what it sends.
	yOwn            *dense.Matrix
	foldBuf, expBuf [][]float64
	gather          []float64
	op              rowDistOperator
	wTTMc, wTRSVD   int64
	expandBytes     int64
	foldBytes       int64
	trsvdBytes      int64
	trsvdMsgs       int64
}

// ownedRows lists, per mode and rank, the slices the rank owns,
// ascending. It is derived from the shared partition, so every rank can
// compute factor-row placement without communication.
func ownedRows(gsym *symbolic.Structure, part *Partition) [][][]int32 {
	all := make([][][]int32, len(gsym.Modes))
	for n := range all {
		all[n] = make([][]int32, part.P)
		for _, row := range gsym.Modes[n].Rows {
			r := part.RowOwner[n][row]
			all[n][r] = append(all[n][r], row)
		}
	}
	return all
}

func newExchange(c *mpi.Comm, x *tensor.COO, part *Partition, gsym *symbolic.Structure, allOwned [][][]int32, ranks []int, fault func(rank, sweep int)) *exchange {
	me, order := c.Rank(), x.Order()
	ex := &exchange{c: c, me: me, grain: part.Grain, fault: fault, modes: make([]exchangeMode, order)}

	// Local tensor: owned nonzeros (fine) or every nonzero of an owned
	// slice in any mode (coarse).
	var ids []int32
	if part.Grain == Fine {
		for id, o := range part.NZOwner {
			if int(o) == me {
				ids = append(ids, int32(id))
			}
		}
	} else {
		for id := 0; id < x.NNZ(); id++ {
			for n := 0; n < order; n++ {
				if int(part.RowOwner[n][x.Idx[n][id]]) == me {
					ids = append(ids, int32(id))
					break
				}
			}
		}
	}
	ex.xloc = x.Subset(ids)
	ex.lsym = symbolic.Build(ex.xloc, 1)
	ex.sym = ex.lsym
	if part.Grain == Coarse {
		ex.sym = &symbolic.Structure{Modes: make([]symbolic.Mode, order)}
	}

	for n := 0; n < order; n++ {
		m := &ex.modes[n]
		m.allOwned = allOwned[n]
		m.owned = allOwned[n][me]
		m.ownedPos = make([]int32, len(m.owned))
		gids := make([]int64, len(m.owned))
		lsm := &ex.lsym.Modes[n]
		gsm := &gsym.Modes[n]
		for k, row := range m.owned {
			m.ownedPos[k] = lsm.Pos[row]
			gids[k] = int64(gsm.Pos[row])
		}
		rowSize := 1
		for t, r := range ranks {
			if t != n {
				rowSize *= r
			}
		}
		m.op = rowDistOperator{DenseOperator: trsvd.DenseOperator{Threads: 1}, c: c, gids: gids, sent: &m.trsvdBytes, msgs: &m.trsvdMsgs}
		m.gather = make([]float64, len(m.owned)*ranks[n])
		m.wTRSVD = int64(len(m.owned)) * int64(rowSize)

		m.expSend, m.expRecv = expandPlan(n, me, x, part, gsym, ex.lsym, m.owned)
		m.expSrc, m.expDst = nonEmptySources(m.expRecv), nonEmptySources(m.expSend)
		m.expBuf = sendBuffers(m.expSend, ranks[n])
		if part.Grain == Fine {
			m.yOwn = dense.NewMatrix(len(m.owned), rowSize)
			m.foldBuf = sendBuffers(m.expRecv, rowSize)
		} else {
			ex.sym.Modes[n] = lsm.Select(m.ownedPos)
		}
		m.wTTMc = ttm.Flops(len(ex.sym.Modes[n].NZ), rowSize)
	}
	return ex
}

// sendBuffers allocates one packed buffer per destination of a plan,
// width values per listed row.
func sendBuffers(plan [][]int32, width int) [][]float64 {
	bufs := make([][]float64, len(plan))
	for d, rows := range plan {
		if len(rows) > 0 {
			bufs[d] = make([]float64, len(rows)*width)
		}
	}
	return bufs
}

// BeginSweep is the fault-injection point of Config.Fault.
func (ex *exchange) BeginSweep(sweep int) {
	if ex.fault != nil {
		ex.fault(ex.me, sweep)
	}
}

// Fold sends this rank's partial rows of Y_(n) to the slice owners and
// sums the partials of its own rows (Algorithm 4 lines 5-8). The plans
// already pruned the partials to actual sharers; no empty frame travels
// to a non-sharer, and each peer gets one packed buffer.
func (ex *exchange) Fold(n int, y *dense.Matrix, rows []int32) (*dense.Matrix, []int32) {
	m := &ex.modes[n]
	if ex.grain == Coarse {
		if len(rows) != len(m.owned) {
			panic(fmt.Sprintf("dist: coarse rank %d computed %d rows of mode %d, owns %d", ex.me, len(rows), n, len(m.owned)))
		}
		return y, rows
	}
	ex.packFold(n, y)
	b0 := ex.c.BytesSent()
	recv := ex.c.SparseAllToAllV(m.foldBuf, m.expDst)
	m.foldBytes += ex.c.BytesSent() - b0
	ex.sumFold(m, y, recv)
	return m.yOwn, m.owned
}

// packFold copies the partial rows bound for each owner into its buffer.
func (ex *exchange) packFold(n int, y *dense.Matrix) {
	m, k, pos := &ex.modes[n], y.Cols, ex.lsym.Modes[n].Pos
	for d, rows := range m.expRecv {
		for j, row := range rows {
			copy(m.foldBuf[d][j*k:(j+1)*k], y.Row(int(pos[row])))
		}
	}
}

// sumFold accumulates the owned rows: own partial first, then the
// received contributions in ascending source-rank order — a fixed
// order, so the fold is deterministic.
func (ex *exchange) sumFold(m *exchangeMode, y *dense.Matrix, recv [][]float64) {
	k := y.Cols
	for kk, pos := range m.ownedPos {
		copy(m.yOwn.Row(kk), y.Row(int(pos)))
	}
	for _, s := range m.expDst {
		buf := recv[s]
		if len(buf) != len(m.expSend[s])*k {
			panic(fmt.Sprintf("dist: fold buffer mismatch from rank %d: %d values for %d rows", s, len(buf), len(m.expSend[s])))
		}
		for j, kk := range m.expSend[s] {
			dense.Axpy(1, buf[j*k:(j+1)*k], m.yOwn.Row(int(kk)))
		}
	}
}

// Operator is the row-distributed view of the folded rows.
func (ex *exchange) Operator(n int, y *dense.Matrix) trsvd.Operator {
	ex.modes[n].op.A = y
	return &ex.modes[n].op
}

// Expand sends each solved row to exactly the ranks whose nonzeros
// reference it and receives the rows this rank references (Algorithm 4
// lines 9-12), straight into the resident factor. Rows no local nonzero
// references stay zero — the TTMc kernels and the core contraction only
// ever read referenced rows.
func (ex *exchange) Expand(n int, factor *dense.Matrix) {
	m := &ex.modes[n]
	r := factor.Cols
	for d, ks := range m.expSend {
		for j, k := range ks {
			copy(m.expBuf[d][j*r:(j+1)*r], factor.Row(int(m.owned[k])))
		}
	}
	b0 := ex.c.BytesSent()
	recv := ex.c.SparseAllToAllV(m.expBuf, m.expSrc)
	m.expandBytes += ex.c.BytesSent() - b0
	for _, s := range m.expSrc {
		rows, buf := m.expRecv[s], recv[s]
		if len(buf) != len(rows)*r {
			panic(fmt.Sprintf("dist: expand buffer mismatch from rank %d: %d values for %d rows", s, len(buf), len(rows)))
		}
		for j, row := range rows {
			copy(factor.Row(int(row)), buf[j*r:(j+1)*r])
		}
	}
}

// ReduceCore AllReduces the owned-row block product, so every rank
// holds the identical dense core (Algorithm 4 line 13).
func (ex *exchange) ReduceCore(g []float64) {
	b0 := ex.c.BytesSent()
	copy(g, ex.c.AllReduceSum(g))
	ex.coreBytes += ex.c.BytesSent() - b0
}

// Sync replicates the complete factors on every rank, has rank 0 run
// persist, and closes with a barrier. The sweep never needs rows
// outside its plans, so full replication happens only here: for a
// checkpoint (one file is the world's state) and for the final Result
// (factors identical on every rank are part of its contract).
func (ex *exchange) Sync(factors []*dense.Matrix, persist func() error) error {
	b0 := ex.c.BytesSent()
	for n, u := range factors {
		ex.assemble(n, u)
	}
	ex.assembleBytes += ex.c.BytesSent() - b0
	if persist != nil && ex.me == 0 {
		if err := persist(); err != nil {
			return err
		}
	}
	ex.c.Barrier()
	return nil
}

// assemble completes factor n in place with one allgather of the owned
// row blocks.
func (ex *exchange) assemble(n int, u *dense.Matrix) {
	m := &ex.modes[n]
	r := u.Cols
	for k, row := range m.owned {
		copy(m.gather[k*r:(k+1)*r], u.Row(int(row)))
	}
	gathered := ex.c.AllGatherV(m.gather)
	for src, rows := range m.allOwned {
		if src == ex.me {
			continue
		}
		if len(gathered[src]) != len(rows)*r {
			panic(fmt.Sprintf("dist: factor assembly mismatch from rank %d", src))
		}
		for k, row := range rows {
			copy(u.Row(int(row)), gathered[src][k*r:(k+1)*r])
		}
	}
}

// rowDistOperator is the row-distributed matrix-free view of Y_(n):
// the dense operator over this rank's owned rows, on one thread, whose
// column-space results (MatTVec, MatTMat, RowDot, RowGram, Gram) are
// reduced in fixed rank order, one collective each, so every rank
// receives bitwise-identical values and the SPMD solver iterations stay
// in lockstep. sent accumulates the payload of those reductions — the
// mode's TRSVD traffic — and msgs their number.
type rowDistOperator struct {
	trsvd.DenseOperator
	c          *mpi.Comm
	gids       []int64
	sent, msgs *int64
}

func (o *rowDistOperator) allReduce(v []float64) []float64 {
	b0 := o.c.BytesSent()
	sum := o.c.AllReduceSum(v)
	*o.sent += o.c.BytesSent() - b0
	*o.msgs++
	return sum
}

func (o *rowDistOperator) MatTVec(y, x []float64) {
	o.DenseOperator.MatTVec(y, x)
	copy(x, o.allReduce(x))
}

// RowDot keeps Dot's association: the dense operator's is DotUnrolled's.
func (o *rowDistOperator) RowDot(a, b []float64) float64 {
	return o.allReduce([]float64{dense.Dot(a, b)})[0]
}

func (o *rowDistOperator) GlobalRow(local int) int64 { return o.gids[local] }

// RowGram folds the local Gram block YᵀY of the owned rows with one b²
// AllReduce — the single collective the randomized solver's CholeskyQR2
// panel orthonormalization needs per pass, replacing a distributed QR.
// Ranks owning zero rows contribute a zero block and receive the same
// replicated Gram as everyone else.
func (o *rowDistOperator) RowGram(y, g *dense.Matrix) {
	o.DenseOperator.RowGram(y, g)
	copy(g.Data, o.allReduce(g.Data))
}

// Gram folds the local symmetric product AᵀA of the owned rows with one
// AllReduce of its packed upper triangle, Cols·(Cols+1)/2 values: the
// one large collective of a Gram solve, where a Lanczos solve makes a
// Cols-vector reduction per step and a scalar one per inner product.
// work holds the block partials, then the packed triangle.
func (o *rowDistOperator) Gram(g *dense.Matrix, work []float64) []float64 {
	work = o.DenseOperator.Gram(g, work)
	n := g.Rows
	work = dense.ReuseVec(work, n*(n+1)/2)
	packed := work[:0]
	for i := 0; i < n; i++ {
		packed = append(packed, g.Row(i)[i:]...)
	}
	sum := o.allReduce(packed)
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			g.Data[i*n+j], g.Data[j*n+i] = sum[0], sum[0]
			sum = sum[1:]
		}
	}
	return work
}

// MatTMat folds the local product AᵀY of the owned rows with one
// Cols x b AllReduce: a panel of b columns costs one collective carrying
// what b MatTVec reductions would carry.
func (o *rowDistOperator) MatTMat(y, z *dense.Matrix) {
	o.DenseOperator.MatTMat(y, z)
	copy(z.Data, o.allReduce(z.Data))
}

var _ core.Exchange = (*exchange)(nil)
var _ trsvd.Operator = (*rowDistOperator)(nil)
