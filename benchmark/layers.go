package main

import (
	"context"
	"fmt"
	"net"
	"sync"
	"time"

	"hypertensor/internal/dense"
	"hypertensor/internal/dist"
	"hypertensor/internal/hypergraph"
	"hypertensor/internal/mpi"
	"hypertensor/internal/par"
	"hypertensor/internal/symbolic"
	"hypertensor/internal/tensor"
	"hypertensor/internal/trsvd"
	"hypertensor/internal/ttm"
)

// kernelReps is the number of timed passes behind each kernel metric
// (after one untimed pass that fills the schedule caches).
const kernelReps = 3

// timeReps runs f once untimed and then reps times, returning the walls
// in seconds.
func timeReps(reps int, f func()) []float64 {
	f()
	out := make([]float64, reps)
	for i := range out {
		t0 := time.Now()
		f()
		out[i] = time.Since(t0).Seconds()
	}
	return out
}

func timeOnce(f func()) float64 {
	t0 := time.Now()
	f()
	return time.Since(t0).Seconds()
}

// probeStorage measures the tensor and symbolic layers on the workload's
// tensor: format builds, index footprints, and the write paths (one
// workload delta merged into a clone, and the symbolic splice that
// follows a COO append). It returns the built formats for the kernel
// probes.
func probeStorage(m *metricSet, rec *recorder, x *tensor.COO, sym *symbolic.Structure, delta *tensor.COO, T int) (*tensor.CSF, *tensor.ALTO, error) {
	defer rec.begin("probe.storage")()
	var csf *tensor.CSF
	var alto *tensor.ALTO
	m.add("tensor.csf_build_s", "s", timeOnce(func() { csf = tensor.NewCSF(x, tensor.CSFOptions{Threads: T}) }))
	m.add("tensor.alto_build_s", "s", timeOnce(func() { alto = tensor.NewALTO(x, tensor.ALTOOptions{Threads: T}) }))
	m.add("tensor.index_bytes_coo", "bytes", float64(x.IndexBytes()))
	m.add("tensor.index_bytes_csf", "bytes", float64(csf.IndexBytes()))
	m.add("tensor.index_bytes_alto", "bytes", float64(alto.IndexBytes()))

	// COO merge as the resident engine performs it: the coordinate index
	// is already built (an empty delta syncs it), so the timed merge
	// costs what the second and later updates of a session cost.
	xc := x.Clone()
	ix := xc.NewMergeIndex()
	if _, err := xc.MergeIndexed(tensor.NewCOO(x.Dims, 0), ix); err != nil {
		return nil, nil, fmt.Errorf("sync merge index: %w", err)
	}
	sym = sym.Clone()
	oldNNZ := xc.NNZ()
	var err error
	m.add("tensor.coo_merge_s", "s", timeOnce(func() { _, err = xc.MergeIndexed(delta, ix) }))
	if err != nil {
		return nil, nil, fmt.Errorf("coo merge: %w", err)
	}
	m.add("symbolic.insert_s", "s", timeOnce(func() { _, err = sym.Insert(xc, oldNNZ) }))
	if err != nil {
		return nil, nil, fmt.Errorf("symbolic insert: %w", err)
	}
	cc := csf.Clone()
	m.add("tensor.csf_merge_s", "s", timeOnce(func() { _, err = cc.Merge(delta) }))
	if err != nil {
		return nil, nil, fmt.Errorf("csf merge: %w", err)
	}
	return csf, alto, nil
}

// probeKernels runs one all-modes TTMc pass per kernel with fixed
// orthonormal factors, then the TRSVD solvers on each mode's Y from the
// flat pass, and holds the rates against the host ceilings recorded in
// m by probeDense.
func probeKernels(m *metricSet, rec *recorder, x *tensor.COO, sym *symbolic.Structure, csf *tensor.CSF, alto *tensor.ALTO, ranks []int, seed int64, T int) error {
	defer rec.begin("probe.kernels")()
	order := x.Order()
	u := dist.DefaultInitial(x.Dims, ranks, seed)
	ys := make([]*dense.Matrix, order)
	for n := range ys {
		ys[n] = dense.NewMatrix(sym.Modes[n].NumRows(), ttm.RowSize(u, n))
	}
	flat := func(threads int) func() {
		return func() {
			for n := range ys {
				ttm.TTMcSched(ys[n], x, &sym.Modes[n], u, threads, par.ScheduleBalanced)
			}
		}
	}
	flatS := timeReps(kernelReps, flat(T))
	m.add("ttm.flat_s", "s", flatS...)
	flatMadds := ttm.SweepFlops(x.NNZ(), u)
	m.add("ttm.flat_madds", "count", float64(flatMadds))
	flatT1 := timeReps(kernelReps, flat(1))
	m.add("ttm.flat_s_t1", "s", flatT1...)
	m.add("ttm.par_eff", "ratio", median(flatT1)/(float64(T)*median(flatS)))
	rate := float64(flatMadds) / median(flatS)
	m.add("ttm.gmadds_per_s", "Gmadd/s", rate/1e9)

	// Bytes the flat kernel touches in one pass, computed from sizes (not
	// measured, so cache misses are not in it): per mode, every nonzero's
	// update-list id, other-mode indices, value and the factor rows it
	// multiplies, plus one write of every Y row.
	var bytes float64
	for n := range ys {
		factorRow := 0
		for t, r := range ranks {
			if t != n {
				factorRow += 8 * r
			}
		}
		bytes += float64(x.NNZ())*float64(4+4*(order-1)+8+factorRow) + 8*float64(len(ys[n].Data))
	}
	m.add("ttm.computed_bytes", "bytes", bytes)
	ceiling := m.value("dense.gemm_gflops") * 1e9 / 2 // madds/s
	if mem := m.value("dense.stream_gb_per_s") * 1e9 * float64(flatMadds) / bytes; mem < ceiling {
		ceiling = mem
	}
	m.add("ttm.roofline_frac", "ratio", rate/ceiling)

	last := order - 1
	m.add("ttm.core_s", "s", timeReps(kernelReps, func() { ttm.Core(ys[last], &sym.Modes[last], u[last], ranks, T) })...)

	if err := probeTRSVD(m, ys, ranks, seed, T); err != nil {
		return err
	}

	sameRows := func(name string, rows func(n int) int) error {
		for n := range ys {
			if rows(n) != ys[n].Rows {
				return fmt.Errorf("%s kernel has %d rows in mode %d, symbolic has %d", name, rows(n), n, ys[n].Rows)
			}
		}
		return nil
	}
	fiber := ttm.NewCSFTTMc(csf)
	if err := sameRows("csf", fiber.NumRows); err != nil {
		return err
	}
	csfS := timeReps(kernelReps, func() {
		fiber.ResetFlops()
		for n := range ys {
			fiber.TTMc(ys[n], n, u, T)
		}
	})
	m.add("ttm.csf_s", "s", csfS...)
	m.add("ttm.csf_madds", "count", float64(fiber.Flops()))

	lin := ttm.NewALTOTTMc(alto, symbolic.Build(alto, T))
	if err := sameRows("alto", lin.NumRows); err != nil {
		return err
	}
	altoS := timeReps(kernelReps, func() {
		lin.ResetFlops()
		for n := range ys {
			lin.TTMc(ys[n], n, u, T)
		}
	})
	m.add("ttm.alto_s", "s", altoS...)
	m.add("ttm.alto_madds", "count", float64(lin.Flops()))

	// The dimension tree is invalidated after every mode as a sweep does
	// after each factor update, so a pass costs what a steady-state
	// sweep's TTMc costs, not the one-off price of a fully cached tree.
	tree := ttm.NewDTree(x)
	if err := sameRows("dtree", tree.NumRows); err != nil {
		return err
	}
	treeS := timeReps(kernelReps, func() {
		tree.ResetFlops()
		for n := range ys {
			tree.TTMc(ys[n], n, u, T)
			tree.Invalidate(n)
		}
	})
	m.add("ttm.dtree_s", "s", treeS...)
	m.add("ttm.dtree_madds", "count", float64(tree.Flops()))
	return nil
}

// probeTRSVD solves each mode's Y with the Lanczos and the randomized
// solver through trsvd.DenseOperator, fresh workspaces per rep.
func probeTRSVD(m *metricSet, ys []*dense.Matrix, ranks []int, seed int64, T int) error {
	type solver func(trsvd.Operator, int, trsvd.Options) (*trsvd.Result, error)
	var matvecs int
	var bytes float64
	var err error
	pass := func(solve solver, threads int) func() {
		return func() {
			matvecs, bytes = 0, 0
			for n, y := range ys {
				var r *trsvd.Result
				r, err = solve(&trsvd.DenseOperator{A: y, Threads: threads}, ranks[n], trsvd.Options{Seed: seed + int64(n)})
				if err != nil {
					return
				}
				matvecs += r.MatVecs
				bytes += float64(r.MatVecs) * float64(len(y.Data)) * 8
			}
		}
	}
	lan := timeReps(kernelReps, pass(trsvd.Lanczos, T))
	if err != nil {
		return fmt.Errorf("lanczos probe: %w", err)
	}
	m.add("trsvd.lanczos_s", "s", lan...)
	m.add("trsvd.lanczos_matvecs", "count", float64(matvecs))
	gbps := bytes / median(lan) / 1e9
	m.add("trsvd.gb_per_s", "GB/s", gbps)
	m.add("trsvd.stream_frac", "ratio", gbps/m.value("dense.stream_gb_per_s"))
	lan1 := timeReps(kernelReps, pass(trsvd.Lanczos, 1))
	m.add("trsvd.lanczos_s_t1", "s", lan1...)
	m.add("trsvd.par_eff", "ratio", median(lan1)/(float64(T)*median(lan)))
	rnd := timeReps(kernelReps, pass(trsvd.Randomized, T))
	if err != nil {
		return fmt.Errorf("randomized probe: %w", err)
	}
	m.add("trsvd.rand_s", "s", rnd...)
	m.add("trsvd.rand_matvecs", "count", float64(matvecs))
	return nil
}

// probePar measures the runtime's fork-join cost and how evenly the
// balanced schedule can split the longest mode's rows.
func probePar(m *metricSet, rec *recorder, sym *symbolic.Structure, T int) {
	defer rec.begin("probe.par")()
	const calls = 20000
	wall := timeOnce(func() {
		for i := 0; i < calls; i++ {
			par.ForRange(T, T, func(lo, hi int) {})
		}
	})
	m.add("par.dispatch_us", "us", wall/calls*1e6)
	longest := 0
	for n := range sym.Modes {
		if sym.Modes[n].NumRows() > sym.Modes[longest].NumRows() {
			longest = n
		}
	}
	w := sym.Modes[longest].RowWeights()
	m.add("par.chain_imbalance", "ratio", par.Imbalance(par.ChainLoads(w, par.PartitionChains(w, T))))
}

// probeDist partitions the tensor for two ranks and solves it with the
// distributed HOOI, reporting the partitioner's quality, the modelled
// and realized bytes, and the per-rank phase split of dist.Stats.
func probeDist(m *metricSet, rec *recorder, x *tensor.COO, w *workload, seed int64) error {
	defer rec.begin("probe.dist")()
	end := rec.begin("hypergraph.partition")
	h := hypergraph.FineGrainModel(x)
	var parts []int32
	m.add("hypergraph.partition_s", "s", timeOnce(func() {
		parts = hypergraph.Partition(h, hypergraph.Options{Parts: distRanks, Seed: seed})
	}))
	end()
	m.add("hypergraph.cut", "count", float64(h.CutsizeConn(parts, distRanks)))
	m.add("hypergraph.imbalance", "ratio", hypergraph.Imbalance(h.VWeights, parts, distRanks))

	end = rec.begin("dist.partition")
	var part *dist.Partition
	var err error
	m.add("dist.partition_s", "s", timeOnce(func() {
		part, err = dist.MakePartition(x, distRanks, dist.Fine, dist.MethodHypergraph, seed)
	}))
	end()
	if err != nil {
		return err
	}
	end = rec.begin("dist.solve")
	var res *dist.Result
	m.add("dist.solve_s", "s", timeOnce(func() {
		res, err = dist.DecomposeWorld(context.Background(), mpi.NewWorld(distRanks), x, part, w.distConfig(seed))
	}))
	end()
	if err != nil {
		return err
	}
	st := res.Stats
	rec.rankPhases(st)
	expand, fold := dist.ModeledCommVolume(x, part, w.Ranks)
	m.add("dist.modeled_bytes", "bytes", float64(expand+fold))
	var eb, fb, tb int64
	work := make([]int64, st.P)
	for n := range st.Mode {
		for r, ms := range st.Mode[n] {
			eb += ms.ExpandBytes
			fb += ms.FoldBytes
			tb += ms.TRSVDBytes
			work[r] += ms.WTTMc
		}
	}
	m.add("dist.expand_bytes", "bytes", float64(eb))
	m.add("dist.fold_bytes", "bytes", float64(fb))
	m.add("dist.trsvd_bytes", "bytes", float64(tb))
	m.add("dist.net_bytes_per_sweep", "bytes", float64(st.TotalSentBytes())/float64(res.Iters))
	m.add("dist.ttmc_s_max", "s", dist.MaxDuration(st.TTMcTime).Seconds())
	m.add("dist.trsvd_s_max", "s", dist.MaxDuration(st.TRSVDTime).Seconds())
	var busy float64
	for r := 0; r < st.P; r++ {
		busy += (st.TTMcTime[r] + st.TRSVDTime[r] + st.CoreTime[r]).Seconds() / st.RankWall[r].Seconds()
	}
	m.add("dist.wait_share", "ratio", 1-busy/float64(st.P))
	m.add("dist.work_imbalance", "ratio", par.Imbalance(work))
	return nil
}

const (
	allReduceLen  = 100
	allReduceReps = 2000
	p2pFloats     = 1 << 17 // 1 MiB
	p2pReps       = 40
)

// commTimes is what rank 0 of a two-rank world measured.
type commTimes struct {
	allReduce float64 // seconds per 100-float AllReduceSum
	p2p       float64 // seconds per 1 MiB-each-way SparseAllToAllV
}

// commBody is the SPMD body of the mpi probe; both transports run it
// unchanged.
func commBody(out *commTimes) func(c *mpi.Comm) {
	return func(c *mpi.Comm) {
		small := make([]float64, allReduceLen)
		c.Barrier()
		t0 := time.Now()
		for i := 0; i < allReduceReps; i++ {
			c.AllReduceSum(small)
		}
		c.Barrier()
		allReduce := time.Since(t0).Seconds() / allReduceReps

		peer := 1 - c.Rank()
		bufs := make([][]float64, 2)
		bufs[peer] = make([]float64, p2pFloats)
		c.Barrier()
		t0 = time.Now()
		for i := 0; i < p2pReps; i++ {
			c.SparseAllToAllV(bufs, []int{peer})
		}
		c.Barrier()
		if c.Rank() == 0 {
			out.allReduce = allReduce
			out.p2p = time.Since(t0).Seconds() / p2pReps
		}
	}
}

// probeMPI times a small collective and a large point-to-point exchange
// on two ranks over both transports; the TCP world is a loopback mesh
// built in this process from pre-bound listeners.
func probeMPI(m *metricSet, rec *recorder) error {
	defer rec.begin("probe.mpi")()
	var sim commTimes
	if err := mpi.NewWorld(2).Run(commBody(&sim)); err != nil {
		return fmt.Errorf("simulated world: %w", err)
	}
	const mb = p2pFloats * 8 / 1e6
	m.add("mpi.sim_allreduce_us", "us", sim.allReduce*1e6)
	m.add("mpi.sim_p2p_mb_per_s", "MB/s", mb/sim.p2p)

	lns := make([]net.Listener, 2)
	addrs := make([]string, 2)
	for r := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return fmt.Errorf("listen on loopback: %w", err)
		}
		lns[r], addrs[r] = ln, ln.Addr().String()
	}
	worlds := make([]*mpi.TCPWorld, 2)
	errs := make([]error, 2)
	var tcp commTimes
	var wg sync.WaitGroup
	for r := range worlds {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			worlds[r], errs[r] = mpi.ConnectTCP(context.Background(), r, addrs, mpi.TCPOptions{Listener: lns[r], Timeout: time.Minute})
			if errs[r] == nil {
				errs[r] = worlds[r].Run(commBody(&tcp))
			}
		}(r)
	}
	wg.Wait()
	var wire, payload int64
	for r, err := range errs {
		if err != nil {
			return fmt.Errorf("tcp rank %d: %w", r, err)
		}
		wire += worlds[r].WireBytes()
		payload += worlds[r].BytesSent()
	}
	m.add("mpi.tcp_allreduce_us", "us", tcp.allReduce*1e6)
	m.add("mpi.tcp_p2p_mb_per_s", "MB/s", mb/tcp.p2p)
	m.add("mpi.tcp_wire_overhead", "ratio", float64(wire)/float64(payload))
	return nil
}
