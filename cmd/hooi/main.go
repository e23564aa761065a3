// Command hooi computes the Tucker decomposition of a sparse tensor in
// .tns format with the HOOI algorithm, in shared-memory mode, on
// simulated distributed ranks, or across real OS processes connected by
// TCP.
//
// Examples:
//
//	hooi -input x.tns -ranks 10,10,10 -iters 20 -tol 1e-5
//	hooi -input x.tns -eps 0.25
//	hooi -input x.tns -ranks 10,10,10 -update delta.tns
//	hooi -input x.tns -ranks 5,5,5,5 -dist 16 -grain fine -method hp
//	hooi -input x.tns -ranks 5,5,5 -dist spawn -np 4
//	hooi -input x.tns -ranks 5,5,5 -dist tcp -rank 0 -peers h0:9000,h1:9000
//	hooi -input x.tns -ranks 10,10,10 -iters 1 -tol -1
//
// Every run starts from seeded random orthonormal factors, and its first
// sweep is a randomized ST-HOSVD whose sketch of each mode is the
// Kronecker product of the other modes' factors: -iters 1 (or 2) is the
// cheap one-pass Tucker, and -eps picks the ranks adaptively.
//
// -dist spawn forks -np rank processes on this machine (binding their
// loopback ports first, so the launch is race-free) and waits; -dist
// tcp joins an externally launched process group as one rank, where
// every process must be started with the same -peers list and its own
// -rank. Both run the same collective algorithms as the simulated
// transport, so fit trajectories are bitwise identical at equal rank
// counts.
//
// With -update the tool converges once, then ingests the delta
// tensor(s) through the resident engine and reports, per update, the
// sweeps to re-converge and the TTMc madds executed per sweep against
// the recompute-everything flat-sweep cost, and finally |Δfit| against a
// from-scratch solve of the fully merged tensor.
package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hypertensor"
	"hypertensor/internal/dense"
	"hypertensor/internal/dist"
	"hypertensor/internal/mpi"
)

func main() {
	var (
		input   = flag.String("input", "", "input tensor in .tns format (required)")
		ranksIn = flag.String("ranks", "", "comma-separated decomposition ranks, one per mode (required)")
		iters   = flag.Int("iters", 20, "maximum ALS sweeps (1 = a one-pass randomized ST-HOSVD from the random start)")
		tol     = flag.Float64("tol", 1e-5, "fit-change stopping tolerance (negative disables)")
		threads = flag.Int("threads", 0, "shared-memory threads (0 = GOMAXPROCS)")
		eps     = flag.Float64("eps", 0, "adaptive-rank threshold in (0,1]: each mode keeps the sketched directions with sigma^2 >= eps^2*||X||^2/N, a per-value count that bounds no total error (-ranks becomes an optional cap)")
		seed    = flag.Int64("seed", 1, "random seed")
		distM   = flag.String("dist", "", "distributed mode: a rank count (simulated, in-process), \"tcp\" (join a multi-process group as one rank), or \"spawn\" (fork -np rank processes locally); empty or 0 = shared memory")
		grain   = flag.String("grain", "fine", "distributed task grain: fine | coarse")
		method  = flag.String("method", "hp", "distributed placement: hp | rd | bl")
		np      = flag.Int("np", 4, "rank-process count for -dist spawn")
		rank    = flag.Int("rank", -1, "this process's rank for -dist tcp")
		peersIn = flag.String("peers", "", "comma-separated host:port of every rank (index = rank) for -dist tcp")
		lfd     = flag.Int("listen-fd", -1, "inherited file descriptor of this rank's pre-bound listener (-dist tcp; set by -dist spawn)")
		distTO  = flag.Duration("dist-timeout", 2*time.Minute, "TCP transport receive/write deadline; a stalled or dead peer fails the run after this long (negative disables)")
		update  = flag.String("update", "", "comma-separated delta tensors (.tns) to ingest incrementally after the initial convergence")
		quiet   = flag.Bool("q", false, "print only the final fit")

		ckptDir    = flag.String("checkpoint", "", "checkpoint directory: write a crash-consistent snapshot every -ckpt-every sweeps and resume from the newest usable one on startup")
		ckptEvery  = flag.Int("ckpt-every", 1, "sweeps between checkpoints when -checkpoint is set")
		maxRestart = flag.Int("max-restarts", 3, "-dist spawn: how many times to restart the whole rank group after a process failure before giving up (restarts resume from -checkpoint)")
		chaosRank  = flag.Int("chaos-kill-rank", -1, "fault injection: rank that dies at -chaos-kill-sweep (spawn children exit hard; simulated ranks fail typed) — for recovery testing")
		chaosSweep = flag.Int("chaos-kill-sweep", 0, "fault injection: 1-based sweep at which -chaos-kill-rank dies")
	)
	flag.Parse()
	if *input == "" || (*ranksIn == "" && *eps == 0) {
		flag.Usage()
		os.Exit(2)
	}
	var ranks []int
	if *ranksIn != "" {
		var err error
		ranks, err = parseRanks(*ranksIn)
		if err != nil {
			fail(err)
		}
	}
	readStart := time.Now()
	x, err := hypertensor.ReadTensorFile(*input)
	readTime := time.Since(readStart)
	if err != nil {
		fail(err)
	}
	// The spawn parent and non-zero TCP ranks stay silent: rank 0 of the
	// process group reports for everyone.
	if !*quiet && *distM != "spawn" && !(*distM == "tcp" && *rank != 0) {
		fmt.Printf("tensor: dims=%v nnz=%d\n", x.Dims, x.NNZ())
	}

	if *distM != "" && *distM != "0" {
		// distRun does not carry -threads to the ranks: each runs HOOI on
		// one thread from the seeded random start.
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "threads" {
				fail(errors.New("-threads is a shared-memory engine option; it cannot be combined with -dist"))
			}
		})
		if *update != "" {
			fail(fmt.Errorf("-update is a shared-memory engine feature; it cannot be combined with -dist"))
		}
		if *eps != 0 {
			fail(fmt.Errorf("-eps adaptive rank is a shared-memory engine feature; it cannot be combined with -dist"))
		}
		if ranks == nil {
			fail(fmt.Errorf("-dist requires explicit -ranks"))
		}
		d := distRun{
			input: *input, ranks: ranks, grain: *grain, method: *method,
			iters: *iters, tol: *tol, seed: *seed, timeout: *distTO, quiet: *quiet,
			ckptDir: *ckptDir, ckptEvery: *ckptEvery, maxRestarts: *maxRestart,
			chaosRank: *chaosRank, chaosSweep: *chaosSweep,
		}
		switch *distM {
		case "tcp":
			d.runTCP(x, *rank, *peersIn, *lfd)
		case "spawn":
			d.runSpawn(*np)
		default:
			p, err := strconv.Atoi(*distM)
			if err != nil || p < 1 {
				fail(fmt.Errorf("-dist wants a rank count, \"tcp\", or \"spawn\"; got %q", *distM))
			}
			d.runSimulated(x, p)
		}
		return
	}

	// A shared-memory run reads none of the distributed flags.
	flag.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "grain", "method", "np", "rank", "peers", "listen-fd", "dist-timeout", "max-restarts", "chaos-kill-rank", "chaos-kill-sweep":
			fail(fmt.Errorf("-%s is a distributed option; it needs -dist", f.Name))
		}
	})

	opts := hypertensor.Options{
		Ranks:    ranks,
		Eps:      *eps,
		MaxIters: *iters,
		Tol:      *tol,
		Threads:  *threads,
		Seed:     *seed,
	}
	opts.MeasureAllocs = !*quiet
	plan, err := hypertensor.NewPlan(x, opts)
	if err != nil {
		fail(err)
	}
	var eng *hypertensor.Engine
	if *ckptDir != "" {
		st, path, lerr := hypertensor.LoadLatestCheckpoint(*ckptDir)
		switch {
		case lerr == nil:
			eng, err = hypertensor.ResumeEngineState(plan, st)
			if err != nil {
				fail(err)
			}
			if !*quiet {
				fmt.Printf("resumed from %s (sweep %d)\n", path, st.Sweep)
			}
		case errors.Is(lerr, hypertensor.ErrCheckpointNotFound):
			// Fresh start; the first checkpoint appears below.
		default:
			fail(lerr)
		}
	}
	if eng == nil {
		eng = hypertensor.NewEngine(plan)
	}
	if *ckptDir != "" {
		eng.EnableCheckpoints(*ckptDir, *ckptEvery)
	}
	dec, err := eng.Run(context.Background())
	if err != nil {
		fail(err)
	}
	if *update != "" {
		runUpdates(eng, x, dec, opts, *update, *quiet)
		return
	}
	if *quiet {
		fmt.Printf("%.10f\n", dec.Fit)
		return
	}
	fmt.Println(hypertensor.Summary(dec))
	if *eps > 0 {
		fmt.Printf("eps %g selected ranks %v\n", *eps, dec.ChosenRanks)
	}
	fmt.Printf("timings: read=%v init=%v symbolic=%v ttmc=%v trsvd=%v core=%v (steady-state allocs/sweep %d, %d B/sweep)\n",
		readTime, dec.Timings.Init, dec.Timings.Symbolic, dec.Timings.TTMc, dec.Timings.TRSVD, dec.Timings.Core,
		dec.AllocsPerSweep, dec.AllocBytesPerSweep)
	fmt.Printf("storage: index=%d B (%.2f B/nnz) streams=%d B",
		dec.IndexBytes, float64(dec.IndexBytes)/float64(x.NNZ()), dec.StreamBytes)
	// The process's peak resident set so far (VmHWM), where the kernel reports it.
	if kb, ok := peakRSSKiB(); ok {
		fmt.Printf(" VmHWM=%d kB", kb)
	}
	fmt.Println()
	// The measured count sits next to what each strategy was predicted
	// to cost, so a strategy choice that the input proves wrong shows
	// here.
	flatMadds, treeMadds := hypertensor.PredictSweepMadds(x, dec.ChosenRanks, *threads)
	fmt.Printf("ttmc: strategy=%s flops=%d (%d madds/sweep; predicted flat=%d dtree=%d)",
		dec.TTMc, dec.TTMcFlops, dec.TTMcFlops/int64(max(dec.Iters, 1)), flatMadds, treeMadds)
	if dec.TTMc == hypertensor.TTMcDTree {
		fmt.Printf(" (node recompute time %v)", dec.Timings.TTMcNodes)
	} else {
		// Per mode; ~1 means the file's order leaves the kernel nothing to factor out.
		fmt.Printf(" runs=%.2f", dec.TTMcRuns)
	}
	// Per mode, per sweep: the gathers of a tall mode's factor rows show here.
	nsPerNZ := make([]float64, len(dec.Timings.TTMcModes))
	for n, d := range dec.Timings.TTMcModes {
		nsPerNZ[n] = float64(d.Nanoseconds()) / float64(max(dec.Iters, 1)) / float64(max(x.NNZ(), 1))
	}
	fmt.Printf(" ns/nnz=%.1f\n", nsPerNZ)
	// The solver each mode resolved to, how often it read Y_(n), and the
	// Lanczos solves that stopped at the Krylov cap short of their
	// tolerance (HOOI carries on with their approximate vectors).
	fmt.Printf("trsvd: solver=%v solves=%d passes=%d (%.1f/solve) madds=%d unconverged=%d\n",
		dec.SVD, dec.TRSVDSolves, dec.TRSVDPasses, float64(dec.TRSVDPasses)/float64(max(dec.TRSVDSolves, 1)),
		dec.TRSVDMadds, dec.TRSVDUnconverged)
	// Which path the dense axpy-family kernels took on this CPU; the fit
	// does not depend on it.
	fmt.Printf("kernels: %s\n", dense.KernelName())
	for i, f := range dec.FitHistory {
		fmt.Printf("  sweep %2d: fit %.8f\n", i+1, f)
	}
}

// runUpdates streams the delta files through the resident engine and
// reports the incremental-path accounting, then compares the terminal
// fit against a from-scratch solve of the fully merged tensor.
func runUpdates(eng *hypertensor.Engine, x *hypertensor.SparseTensor, initial *hypertensor.Decomposition,
	opts hypertensor.Options, updateList string, quiet bool) {
	paths := strings.Split(updateList, ",")
	if !quiet {
		fmt.Printf("initial: fit %.8f after %d sweeps\n", initial.Fit, initial.Iters)
	}
	// The mirror exercises the standalone COO.Merge path and feeds the
	// from-scratch comparison at the end; quiet mode skips both.
	var mirror *hypertensor.SparseTensor
	if !quiet {
		mirror = x.Clone()
	}
	var last *hypertensor.Decomposition = initial
	for step, path := range paths {
		delta, err := hypertensor.ReadTensorFile(strings.TrimSpace(path))
		if err != nil {
			fail(err)
		}
		if mirror != nil {
			if _, err := mirror.Merge(delta); err != nil {
				fail(err)
			}
		}
		last, err = eng.Update(delta)
		if err != nil {
			fail(err)
		}
		if quiet {
			continue
		}
		perSweep := last.UpdateMadds / int64(last.UpdateSweeps)
		fmt.Printf("update %d (%s): +%d nnz -> fit %.8f in %d sweeps; ttmc %s madds/sweep vs %s full-sweep (%.2fx less)\n",
			step+1, strings.TrimSpace(path), last.DeltaNNZ, last.Fit, last.UpdateSweeps,
			humanInt(perSweep), humanInt(last.FullSweepMadds),
			float64(last.FullSweepMadds)/float64(perSweep))
	}
	if quiet {
		// Quiet mode reports only the incremental fit; skip the (cold,
		// expensive) from-scratch comparison solve entirely.
		fmt.Printf("%.10f\n", last.Fit)
		return
	}
	scratch, err := hypertensor.Decompose(mirror, opts)
	if err != nil {
		fail(err)
	}
	dfit := last.Fit - scratch.Fit
	if dfit < 0 {
		dfit = -dfit
	}
	fmt.Printf("from-scratch solve of the merged tensor: fit %.8f in %d sweeps; |dfit| = %.3g\n",
		scratch.Fit, scratch.Iters, dfit)
}

// peakRSSKiB reads the process's resident-set high-water mark (VmHWM)
// from /proc/self/status; ok is false where that is unreadable.
func peakRSSKiB() (kb int64, ok bool) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, false
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, found := strings.CutPrefix(line, "VmHWM:"); found {
			kb, err := strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 10, 64)
			return kb, err == nil
		}
	}
	return 0, false
}

func humanInt(v int64) string {
	switch {
	case v >= 1_000_000_000:
		return fmt.Sprintf("%.2fG", float64(v)/1e9)
	case v >= 1_000_000:
		return fmt.Sprintf("%.2fM", float64(v)/1e6)
	case v >= 1_000:
		return fmt.Sprintf("%.1fk", float64(v)/1e3)
	}
	return fmt.Sprintf("%d", v)
}

// distRun carries the flag state a distributed launch needs, in any of
// its three modes (simulated ranks, one TCP rank, local spawn).
type distRun struct {
	input         string
	ranks         []int
	grain, method string
	iters         int
	tol           float64
	seed          int64
	timeout       time.Duration
	quiet         bool

	ckptDir     string
	ckptEvery   int
	maxRestarts int
	chaosRank   int
	chaosSweep  int
}

// config assembles the distributed configuration shared by all three
// launch modes, including checkpointing and (for the simulated
// transport) in-process fault injection. The TCP children install a
// hard-exit chaos hook separately — a spawn-mode chaos kill must be a
// real process death for the supervisor to detect.
func (d *distRun) config() hypertensor.DistConfig {
	return hypertensor.DistConfig{
		Ranks: d.ranks, MaxIters: d.iters, Tol: d.tol, Seed: d.seed,
		CheckpointDir: d.ckptDir, CheckpointEvery: d.ckptEvery,
	}
}

func (d *distRun) partition(x *hypertensor.SparseTensor, p int) *hypertensor.Partition {
	var g hypertensor.Grain
	switch d.grain {
	case "fine":
		g = hypertensor.FineGrain
	case "coarse":
		g = hypertensor.CoarseGrain
	default:
		fail(fmt.Errorf("unknown grain %q", d.grain))
	}
	var m hypertensor.PartitionMethod
	switch d.method {
	case "hp":
		m = hypertensor.PartitionHypergraph
	case "rd":
		m = hypertensor.PartitionRandom
	case "bl":
		m = hypertensor.PartitionBlock
	default:
		fail(fmt.Errorf("unknown method %q", d.method))
	}
	part, err := hypertensor.NewPartition(x, p, g, m, d.seed)
	if err != nil {
		fail(err)
	}
	return part
}

// runSimulated solves on p in-process simulated ranks.
func (d *distRun) runSimulated(x *hypertensor.SparseTensor, p int) {
	part := d.partition(x, p)
	cfg := d.config()
	if d.chaosRank >= 0 && d.chaosSweep > 0 {
		// In-process ranks are goroutines: the chaos kill is a typed
		// transport fault, and recovery is a rerun of the same command.
		cfg.Fault = hypertensor.FaultConfig{KillRank: d.chaosRank, KillAtSweep: d.chaosSweep}.SweepHook()
	}
	res, err := hypertensor.DecomposeDistributed(x, part, cfg)
	if err != nil {
		fail(err)
	}
	d.report(part, res, p, "simulated")
}

// runTCP joins a multi-process group as one rank. Every process of the
// group runs the same deterministic solve; rank 0 reports.
func (d *distRun) runTCP(x *hypertensor.SparseTensor, rank int, peerList string, listenFD int) {
	peers := strings.Split(peerList, ",")
	for i := range peers {
		peers[i] = strings.TrimSpace(peers[i])
	}
	if len(peers) < 1 || peers[0] == "" {
		fail(fmt.Errorf("-dist tcp needs -peers host:port,..."))
	}
	if rank < 0 || rank >= len(peers) {
		fail(fmt.Errorf("-dist tcp needs -rank in [0,%d)", len(peers)))
	}
	opt := hypertensor.TCPOptions{Timeout: d.timeout}
	if listenFD >= 0 {
		ln, err := net.FileListener(os.NewFile(uintptr(listenFD), "listener"))
		if err != nil {
			fail(fmt.Errorf("rank %d: inherited listener fd %d: %v", rank, listenFD, err))
		}
		opt.Listener = ln
	}
	w, err := hypertensor.ConnectTCP(context.Background(), rank, peers, opt)
	if err != nil {
		fail(err)
	}
	part := d.partition(x, len(peers))
	cfg := d.config()
	if d.chaosRank >= 0 && d.chaosSweep > 0 {
		cfg.Fault = func(r, sweep int) {
			if r == d.chaosRank && sweep == d.chaosSweep {
				// A real process death, so the spawn supervisor exercises
				// its production detect-and-restart path.
				fmt.Fprintf(os.Stderr, "hooi: rank %d: injected chaos kill at sweep %d\n", r, sweep)
				os.Exit(137)
			}
		}
	}
	res, err := hypertensor.DecomposeDistributedWorld(context.Background(), w, x, part, cfg)
	if err != nil {
		// Ranks that failed because some OTHER rank died — aborted by
		// the local teardown, or observing the dead peer's connection
		// drop — exit with a distinct code, so the supervisor attributes
		// the failure to the process that actually caused it (which died
		// with its own exit code) instead of the EOF storm it triggered.
		if errors.Is(err, mpi.ErrAborted) || errors.Is(err, mpi.ErrPeerDied) || errors.Is(err, mpi.ErrPeerClosed) {
			fmt.Fprintln(os.Stderr, "hooi:", err)
			os.Exit(exitSecondary)
		}
		fail(err)
	}
	if rank != 0 {
		return // replicated result; only rank 0 speaks
	}
	d.report(part, res, len(peers), fmt.Sprintf("tcp wire=%dB", w.WireBytes()))
}

// exitSecondary is the exit code of a rank process whose run was
// aborted by another rank's failure: its own error carries no root
// cause, and the supervisor skips it when attributing the failure.
const exitSecondary = 3

// rankFailure is the supervisor's record of one failed rank attempt:
// the first rank (in completion order) whose exit carried a root cause.
type rankFailure struct {
	rank    int
	code    int
	summary string
}

// runSpawn binds one loopback listener per rank, forks this binary -np
// times in -dist tcp mode (passing each child its pre-bound listener as
// an inherited file descriptor — race-free ephemeral ports), and
// supervises the group: if a rank process dies and -checkpoint is set,
// the whole world is restarted with exponential backoff and resumes
// from the last coordinated checkpoint. Without -checkpoint a failure
// is terminal, propagated with the originating rank's exit code.
func (d *distRun) runSpawn(np int) {
	if np < 1 {
		fail(fmt.Errorf("-dist spawn needs -np >= 1"))
	}
	exe, err := os.Executable()
	if err != nil {
		fail(err)
	}
	maxAttempts := 1
	if d.ckptDir != "" && d.maxRestarts > 0 {
		maxAttempts += d.maxRestarts
	}
	rng := rand.New(rand.NewSource(time.Now().UnixNano()))
	for attempt := 0; ; attempt++ {
		failure := d.spawnOnce(exe, np, attempt)
		if failure == nil {
			return
		}
		fmt.Fprintf(os.Stderr, "hooi: rank %d failed (exit %d): %s\n", failure.rank, failure.code, failure.summary)
		if attempt+1 >= maxAttempts {
			if d.ckptDir == "" {
				fmt.Fprintln(os.Stderr, "hooi: no -checkpoint directory; cannot restart")
			}
			os.Exit(failure.code)
		}
		// Exponential backoff with jitter: doubles from 250ms, capped at
		// 5s, +/-20% so restarted groups don't thunder in lockstep.
		backoff := 250 * time.Millisecond << attempt
		if backoff > 5*time.Second {
			backoff = 5 * time.Second
		}
		backoff += time.Duration(rng.Int63n(int64(2*backoff/5)+1)) - backoff/5
		fmt.Fprintf(os.Stderr, "hooi: restarting %d ranks from checkpoint %s in %v (attempt %d of %d)\n",
			np, d.ckptDir, backoff.Round(time.Millisecond), attempt+2, maxAttempts)
		time.Sleep(backoff)
	}
}

// spawnOnce launches and waits for one full rank group. It returns nil
// when every rank exits cleanly, else the failure of the originating
// rank: the earliest-exiting rank whose code is not exitSecondary
// (falling back to the earliest failure when every exit is secondary).
func (d *distRun) spawnOnce(exe string, np, attempt int) *rankFailure {
	lns := make([]*net.TCPListener, np)
	addrs := make([]string, np)
	for r := 0; r < np; r++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			fail(err)
		}
		lns[r] = ln.(*net.TCPListener)
		addrs[r] = ln.Addr().String()
	}
	cmds := make([]*exec.Cmd, np)
	stderrs := make([]*bytes.Buffer, np)
	for r := 0; r < np; r++ {
		args := []string{
			"-input", d.input,
			"-ranks", intsCSV(d.ranks),
			"-iters", strconv.Itoa(d.iters),
			"-tol", strconv.FormatFloat(d.tol, 'g', -1, 64),
			"-seed", strconv.FormatInt(d.seed, 10),
			"-grain", d.grain,
			"-method", d.method,
			"-dist", "tcp",
			"-rank", strconv.Itoa(r),
			"-peers", strings.Join(addrs, ","),
			"-listen-fd", "3",
			"-dist-timeout", d.timeout.String(),
		}
		if d.quiet {
			args = append(args, "-q")
		}
		if d.ckptDir != "" {
			args = append(args, "-checkpoint", d.ckptDir, "-ckpt-every", strconv.Itoa(d.ckptEvery))
		}
		if attempt == 0 && d.chaosRank >= 0 && d.chaosSweep > 0 {
			// Chaos kills fire on the first attempt only: the restarted
			// group must be able to finish the run.
			args = append(args, "-chaos-kill-rank", strconv.Itoa(d.chaosRank),
				"-chaos-kill-sweep", strconv.Itoa(d.chaosSweep))
		}
		f, err := lns[r].File() // dup of the listening socket for the child
		if err != nil {
			fail(err)
		}
		cmd := exec.Command(exe, args...)
		cmd.Stdout = os.Stdout
		stderrs[r] = &bytes.Buffer{}
		cmd.Stderr = io.MultiWriter(os.Stderr, stderrs[r])
		cmd.ExtraFiles = []*os.File{f} // child fd 3
		if err := cmd.Start(); err != nil {
			fail(fmt.Errorf("spawning rank %d: %v", r, err))
		}
		f.Close()
		lns[r].Close()
		cmds[r] = cmd
	}

	// Wait for every rank concurrently, recording completion order: the
	// first process to die with a root cause is the one to blame (ranks
	// it takes down exit later, and with exitSecondary).
	type exit struct {
		code  int
		order int
	}
	exits := make([]exit, np)
	var order atomic.Int64
	var wg sync.WaitGroup
	wg.Add(np)
	for r, cmd := range cmds {
		go func(r int, cmd *exec.Cmd) {
			defer wg.Done()
			code := 0
			if err := cmd.Wait(); err != nil {
				code = -1
				var ee *exec.ExitError
				if errors.As(err, &ee) {
					code = ee.ExitCode()
				}
			}
			exits[r] = exit{code: code, order: int(order.Add(1))}
		}(r, cmd)
	}
	wg.Wait()

	var failure *rankFailure
	failOrder := np + 1
	secondary := true
	for r, e := range exits {
		if e.code == 0 {
			continue
		}
		rootCause := e.code != exitSecondary
		// A root-cause exit always beats a secondary one; among equals,
		// earliest completion wins.
		if failure == nil || (rootCause && secondary) || (rootCause == !secondary && e.order < failOrder) {
			failure = &rankFailure{rank: r, code: e.code, summary: stderrTail(stderrs[r])}
			failOrder = e.order
			secondary = !rootCause
		}
	}
	return failure
}

// stderrTail extracts the last non-empty stderr line of a failed rank
// for the supervisor's one-line summary.
func stderrTail(buf *bytes.Buffer) string {
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	for i := len(lines) - 1; i >= 0; i-- {
		if s := strings.TrimSpace(lines[i]); s != "" {
			return s
		}
	}
	return "no stderr output"
}

func (d *distRun) report(part *hypertensor.Partition, res *hypertensor.DistDecomposition, p int, transport string) {
	if d.quiet {
		fmt.Printf("%.10f\n", res.Fit)
		return
	}
	st := res.Stats
	fmt.Printf("distributed %s on %d ranks (%s): fit %.6f after %d sweeps (%.3fs/iter wall)\n",
		part.Name(), p, transport, res.Fit, res.Iters, st.WallPerIter.Seconds())
	fmt.Printf("max phase times: ttmc=%v trsvd=%v core=%v symbolic=%v\n",
		dist.MaxDuration(st.TTMcTime), dist.MaxDuration(st.TRSVDTime),
		dist.MaxDuration(st.CoreTime), dist.MaxDuration(st.SymbolicTime))
	for r := 0; r < p; r++ {
		fmt.Printf("  rank %d: wall %v, sent %d B payload (core %d, assemble %d)\n",
			r, st.RankWall[r].Round(time.Millisecond), st.SentBytes[r], st.CoreBytes[r], st.AssembleBytes[r])
	}
	// Per mode, the paper's Table III: comm bytes and the TTMc and TRSVD
	// work statistics, max and avg over the ranks.
	avg := func(sum int64) float64 { return float64(sum) / float64(p) }
	for n := range st.Mode {
		var maxC, maxT, maxS, sumE, sumF, sumS, sumM, sumT, sumW int64
		for _, ms := range st.Mode[n] {
			sumE += ms.ExpandBytes
			sumF += ms.FoldBytes
			sumS += ms.TRSVDBytes
			sumM += ms.TRSVDMsgs
			sumT += ms.WTTMc
			sumW += ms.WTRSVD
			maxC, maxT, maxS = max(maxC, ms.CommBytes()), max(maxT, ms.WTTMc), max(maxS, ms.WTRSVD)
		}
		fmt.Printf("  mode %d comm: max %d B, avg %.0f B per rank (expand %.0f, fold %.0f, trsvd %.0f in %.0f collectives); W_TTMc max %d avg %.0f, W_TRSVD max %d avg %.0f\n",
			n+1, maxC, avg(sumE+sumF+sumS), avg(sumE), avg(sumF), avg(sumS), avg(sumM), maxT, avg(sumT), maxS, avg(sumW))
	}
}

func intsCSV(vs []int) string {
	parts := make([]string, len(vs))
	for i, v := range vs {
		parts[i] = strconv.Itoa(v)
	}
	return strings.Join(parts, ",")
}

func parseRanks(s string) ([]int, error) {
	parts := strings.Split(s, ",")
	ranks := make([]int, len(parts))
	for i, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, fmt.Errorf("bad rank %q: %v", p, err)
		}
		ranks[i] = v
	}
	return ranks, nil
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "hooi:", err)
	os.Exit(1)
}
