package dist

import (
	"context"
	"errors"
	"fmt"
	"time"

	"hypertensor/internal/checkpoint"
	"hypertensor/internal/core"
	"hypertensor/internal/dense"
	"hypertensor/internal/mpi"
	"hypertensor/internal/symbolic"
	"hypertensor/internal/tensor"
)

// Config configures a distributed decomposition.
type Config struct {
	// Ranks holds the target Tucker rank per mode. Required.
	Ranks []int
	// MaxIters caps the ALS sweeps. 0 selects 50.
	MaxIters int
	// Tol stops when the fit improves by less than this between sweeps.
	// 0 selects 1e-5; negative disables the test.
	Tol float64
	// Seed makes the decomposition deterministic.
	Seed int64
	// Initial optionally supplies explicit initial factor matrices;
	// when nil, DefaultInitial(x.Dims, Ranks, Seed) is used.
	Initial []*dense.Matrix
	// CheckpointDir enables coordinated sweep-boundary checkpoints: rank
	// 0 writes one atomically (write-temp, fsync, rename) every
	// CheckpointEvery sweeps, after the sweep's core allreduce — at
	// which point factors, core, and fit are replicated bitwise on every
	// rank, so the single rank-0 file is world-consistent by
	// construction. On startup, if the directory holds a usable
	// checkpoint that matches this configuration, every rank resumes
	// from it and the fit trajectory continues bitwise identically to an
	// uninterrupted run. In multi-process worlds the directory must be
	// reachable by every process (the spawn launcher runs all ranks on
	// one host, so a local path works).
	CheckpointDir string
	// CheckpointEvery is the sweep interval between checkpoints.
	// 0 selects 1 (every sweep) when CheckpointDir is set.
	CheckpointEvery int
	// Fault, when non-nil, is called by every rank at the top of each
	// sweep with (rank, 1-based sweep). It exists for fault injection —
	// mpi.FaultConfig.SweepHook panics a chosen rank at a chosen sweep
	// so recovery paths can be tested deterministically. Production runs
	// leave it nil.
	Fault func(rank, sweep int)
}

// ModeStats carries one rank's per-mode work and communication counts
// for a single HOOI iteration (the paper's Table III statistics). The
// counts are exchanged between ranks at the end of a run, so every
// rank's Stats — including a single process of a multi-process TCP
// world — holds the measurements of all ranks.
type ModeStats struct {
	// WTTMc is the paper's TTMc work statistic: local nonzeros times
	// the TTMc row size, one full rank-one update per nonzero (what a
	// rank's kernel actually executed is Stats.TTMcMadds).
	WTTMc int64
	// WTRSVD is the per-operator-pass TRSVD work: owned rows times the
	// row size.
	WTRSVD int64
	// ExpandBytes, FoldBytes, and TRSVDBytes break the mode's sent
	// payload down by communication phase, averaged over iterations:
	// the factor-row expand (Algorithm 4's distribution of updated
	// rows), the Y-row partial fold (fine grain only; coarse rows are
	// complete locally), and the TRSVD solver's collectives (the
	// AllReduces of the row-distributed Lanczos/randomized/Gram passes).
	ExpandBytes int64
	FoldBytes   int64
	TRSVDBytes  int64
	// TRSVDMsgs is the number of those TRSVD collectives this rank
	// entered, averaged over iterations like the bytes: two per Gram
	// solve (the packed Gram triangle and the small orthogonality
	// check), on the order of a thousand per Lanczos solve (a vector
	// reduction per step, a scalar one per reorthogonalization
	// coefficient).
	TRSVDMsgs int64
}

// CommBytes is the mode's total sent payload across all three phases —
// the single figure the paper's Table III reports.
func (m ModeStats) CommBytes() int64 {
	return m.ExpandBytes + m.FoldBytes + m.TRSVDBytes
}

// Stats aggregates per-rank measurements of a distributed run. All
// slices are indexed by rank and filled on every rank (the values are
// exchanged with one extra allgather after the solve, identically on
// both transports so byte accounting stays transport-invariant).
type Stats struct {
	// P is the number of ranks.
	P int
	// WallPerIter is rank 0's wall-clock time per HOOI sweep (host
	// dependent: simulated ranks time-share the host's cores).
	WallPerIter time.Duration
	// RankWall[r] is rank r's total wall-clock time across all sweeps
	// (barrier-to-barrier, so it includes waiting on stragglers).
	RankWall []time.Duration
	// SentBytes[r] is the payload bytes rank r sent during the solve
	// (8 per float64, 4 per int32, self-sends free; identical between
	// the simulated and TCP transports, and excluding this stats
	// exchange itself).
	SentBytes []int64
	// CoreBytes[r] and AssembleBytes[r] are the part of SentBytes[r]
	// that belongs to no mode: the per-sweep core AllReduce, and the
	// factor assembly of every checkpoint and of the final Result. Over
	// the whole run, like SentBytes — with the per-mode expand, fold and
	// TRSVD bytes (per sweep) they account for every byte sent.
	CoreBytes     []int64
	AssembleBytes []int64
	// TTMcMadds[r] is the TTMc multiply-add count rank r's kernel
	// actually executed over the run (at most the sum of its WTTMc
	// times the sweeps: both kernels share work between nonzeros).
	TTMcMadds []int64
	// Per-rank phase times, accumulated over all sweeps.
	SymbolicTime []time.Duration
	TTMcTime     []time.Duration
	TRSVDTime    []time.Duration
	CoreTime     []time.Duration
	// Mode[n][r] is rank r's per-iteration statistics in mode n.
	Mode [][]ModeStats
}

// TotalSentBytes sums the per-rank payload bytes of the whole world.
func (s *Stats) TotalSentBytes() int64 {
	var sum int64
	for _, b := range s.SentBytes {
		sum += b
	}
	return sum
}

// Result is a distributed Tucker decomposition with per-rank statistics.
type Result struct {
	// Factors are the orthonormal factor matrices (identical on every
	// rank by construction).
	Factors []*dense.Matrix
	// Core is the dense core tensor.
	Core *tensor.Dense
	// Fit is 1 - ||X - X̂||/||X|| after the final sweep.
	Fit float64
	// FitHistory records the fit after every sweep.
	FitHistory []float64
	// Iters is the number of completed sweeps.
	Iters int
	// Stats carries the per-rank measurements.
	Stats *Stats
}

// options routes the configuration through the shared-memory
// validation (ranks, sweep cap, initial factor shapes — against the
// whole tensor) and returns the options every rank plans with. Rank
// kernels are single-threaded COO, the ranks being the parallelism; the
// TTMc strategy is each rank plan's own choice, and each mode's solver
// the one its shape resolves to, the same on every rank (Gram's
// decisions are made on replicated small matrices after fixed
// rank-order reductions, so ranks with zero owned rows stay in lockstep
// with the rest of the world).
func (cfg Config) options(x *tensor.COO, part *Partition) (core.Options, error) {
	opts := core.Options{
		Ranks: cfg.Ranks, MaxIters: cfg.MaxIters, Tol: cfg.Tol, Seed: cfg.Seed,
		Initial: cfg.Initial, Threads: 1,
	}
	if err := opts.Validate(x); err != nil {
		return opts, err
	}
	if part == nil || part.P < 1 || len(part.RowOwner) != x.Order() {
		return opts, fmt.Errorf("dist: partition does not match tensor")
	}
	return opts, nil
}

// Decompose runs the distributed-memory HOOI (Algorithm 4) over
// simulated in-process ranks. It is DecomposeWorld on a fresh simulated
// world with a background context.
func Decompose(x *tensor.COO, part *Partition, cfg Config) (*Result, error) {
	if part == nil {
		return nil, fmt.Errorf("dist: partition does not match tensor")
	}
	return DecomposeWorld(context.Background(), mpi.NewWorld(part.P), x, part, cfg)
}

// DecomposeWorld runs the distributed-memory HOOI (Algorithm 4) over
// the given world — either a simulated mpi.World (every rank a
// goroutine of this process) or an mpi.TCPWorld (this process is one
// rank of a multi-process group; every process must call DecomposeWorld
// with the same tensor, partition, and config). Algorithm 4 is
// Algorithm 3 with a fold after the TTMc and an expand after the TRSVD,
// and the code says so: each rank builds its communication plans and an
// ordinary core.Plan over its local nonzeros, and runs the one sweep
// loop, core.Engine.converge, with those plans as its core.Exchange.
// The result is deterministic for a fixed partition and config: every
// collective accumulates in fixed rank order, so all ranks observe
// bitwise-identical factor iterates on both transports. Cancelling ctx
// aborts a blocked world with an error instead of hanging.
func DecomposeWorld(ctx context.Context, world mpi.Runner, x *tensor.COO, part *Partition, cfg Config) (*Result, error) {
	return decompose(ctx, world, x, part, cfg, seam{})
}

// seam lets tests vary what production fixes: wrap substitutes the
// exchange, which is how the dense-collective oracle is run.
type seam struct {
	wrap func(*exchange) core.Exchange
}

func decompose(ctx context.Context, world mpi.Runner, x *tensor.COO, part *Partition, cfg Config, sm seam) (*Result, error) {
	opts, err := cfg.options(x, part)
	if err != nil {
		return nil, err
	}
	if world.Size() != part.P {
		return nil, fmt.Errorf("dist: world has %d ranks but partition wants %d", world.Size(), part.P)
	}
	if opts.Initial == nil {
		opts.Initial = DefaultInitial(x.Dims, cfg.Ranks, cfg.Seed)
	}
	gsym := symbolic.Build(x, 0)
	// Ranks measure the fit against the whole tensor's norm, not their
	// local storage's.
	normX := x.Norm(0)

	// Resume from the newest usable checkpoint, if any. Every process
	// loads the same file independently (LoadLatest skips torn or
	// corrupt files), so all ranks restart from identical state without
	// a broadcast. An empty or missing directory is a fresh start.
	var resume *checkpoint.State
	var resumePath string
	if cfg.CheckpointDir != "" {
		resume, resumePath, err = checkpoint.LoadLatest(cfg.CheckpointDir)
		if err != nil && !errors.Is(err, checkpoint.ErrNotFound) {
			return nil, fmt.Errorf("dist: load checkpoint: %w", err)
		}
	}
	ckptEvery := cfg.CheckpointEvery
	if ckptEvery <= 0 {
		ckptEvery = 1
	}
	allOwned := ownedRows(gsym, part)

	// Each rank assembles its own complete Result (fit, factors, core
	// are replicated by construction; stats are exchanged), so the body
	// shares nothing across ranks — a requirement for the TCP world,
	// where only the local rank runs in this process.
	p, order := part.P, x.Order()
	results := make([]*Result, p)
	err = world.RunContext(ctx, func(c *mpi.Comm) {
		setupStart := time.Now()
		ex := newExchange(c, x, part, gsym, allOwned, cfg.Ranks, cfg.Fault)
		var rankEx core.Exchange = ex
		if sm.wrap != nil {
			rankEx = sm.wrap(ex)
		}
		plan := core.NewRankPlan(ex.xloc, opts, normX, ex.sym, rankEx)
		var eng *core.Engine
		resumed := 0
		if resume == nil {
			eng = core.NewEngine(plan)
		} else {
			// A checkpoint of a different tensor, rank target or seed
			// would continue a trajectory no uninterrupted run could have
			// taken; every rank refuses it identically.
			var err error
			if eng, err = core.ResumeEngineState(plan, resume); err != nil {
				panic(fmt.Errorf("dist: checkpoint %s: %w", resumePath, err))
			}
			resumed = resume.Sweep
		}
		if cfg.CheckpointDir != "" {
			eng.EnableCheckpoints(cfg.CheckpointDir, ckptEvery)
		}
		symTime := time.Since(setupStart)

		c.Barrier()
		wallStart := time.Now()
		run, err := eng.Run(ctx)
		if err != nil {
			panic(err)
		}
		// Run closed with the factor assembly and a barrier, so the wall
		// clock and the byte snapshot include them.
		wall := time.Since(wallStart)

		// Exchange the per-rank measurements so every rank's Stats is
		// complete. The gather happens on both transports (keeping byte
		// accounting identical) and after the BytesSent snapshot (so the
		// exchange doesn't count itself). Stats cover only the sweeps
		// this process executed: a resumed run's measurements start at
		// the checkpointed sweep.
		sweeps := run.Iters - resumed
		perSweep := int64(max(sweeps, 1))
		local := []float64{
			symTime.Seconds(), run.Timings.TTMc.Seconds(), run.Timings.TRSVD.Seconds(), run.Timings.Core.Seconds(), wall.Seconds(),
			float64(c.BytesSent()), float64(ex.coreBytes), float64(ex.assembleBytes), float64(run.TTMcFlops),
		}
		for n := range ex.modes {
			m := &ex.modes[n]
			local = append(local, float64(m.wTTMc), float64(m.wTRSVD),
				float64(m.expandBytes/perSweep), float64(m.foldBytes/perSweep), float64(m.trsvdBytes/perSweep),
				float64(m.trsvdMsgs/perSweep))
		}
		results[c.Rank()] = &Result{
			Factors: run.Factors, Core: run.Core, Fit: run.Fit, FitHistory: run.FitHistory, Iters: run.Iters,
			Stats: decodeStats(c.AllGatherV(local), p, order, sweeps),
		}
	})
	if err != nil {
		return nil, err
	}
	// The simulated world fills every slot; a TCP world fills only the
	// local rank's. Results are replicated, so any filled slot serves.
	for _, res := range results {
		if res != nil {
			return res, nil
		}
	}
	return nil, fmt.Errorf("dist: no rank produced a result")
}

// statsFixedFields is the number of scalar fields preceding the
// per-mode groups in the gathered stats payload (the durations, then
// the counters, in decodeStats's order); statsModeFields is the size of
// each per-mode group.
const (
	statsFixedFields = 9
	statsModeFields  = 6
)

// decodeStats unpacks the allgathered per-rank measurement payloads.
func decodeStats(all [][]float64, p, order, iters int) *Stats {
	st := &Stats{P: p, Mode: make([][]ModeStats, order)}
	durations := []*[]time.Duration{&st.SymbolicTime, &st.TTMcTime, &st.TRSVDTime, &st.CoreTime, &st.RankWall}
	counters := []*[]int64{&st.SentBytes, &st.CoreBytes, &st.AssembleBytes, &st.TTMcMadds}
	for i, d := range durations {
		*d = make([]time.Duration, p)
		for r := range all {
			(*d)[r] = secDuration(all[r][i])
		}
	}
	for i, c := range counters {
		*c = make([]int64, p)
		for r := range all {
			(*c)[r] = int64(all[r][len(durations)+i])
		}
	}
	for n := range st.Mode {
		st.Mode[n] = make([]ModeStats, p)
		for r := range all {
			f := all[r][statsFixedFields+statsModeFields*n:]
			st.Mode[n][r] = ModeStats{WTTMc: int64(f[0]), WTRSVD: int64(f[1]),
				ExpandBytes: int64(f[2]), FoldBytes: int64(f[3]), TRSVDBytes: int64(f[4]), TRSVDMsgs: int64(f[5])}
		}
	}
	if iters > 0 {
		st.WallPerIter = st.RankWall[0] / time.Duration(iters)
	}
	return st
}

func secDuration(s float64) time.Duration {
	return time.Duration(s * float64(time.Second))
}
