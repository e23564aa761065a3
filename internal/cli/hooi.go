// Package cli is the hooi command: its flags, its runs in shared memory
// and on simulated, TCP and spawned ranks, and its reports. Its
// functions return their errors and write to the writers they are
// given; cmd/hooi's main is the one place that exits, apart from a
// spawned rank's -chaos-kill, whose real process death is the drill.
package cli

import (
	"bytes"
	"cmp"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"net"
	"os"
	"os/exec"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"hypertensor"
	"hypertensor/internal/core"
	"hypertensor/internal/dense"
	"hypertensor/internal/dist"
	"hypertensor/internal/mpi"
	"hypertensor/internal/tensor"
	"hypertensor/internal/ttm"
)

// Hooi runs the command line args (args[0] is the name the usage text
// shows) and returns its exit code: 0, 1 for an error, 2 for a usage
// error, exitSecondary for a rank that another rank's failure aborted,
// and under -dist spawn the failed rank's code.
func Hooi(args []string, stdout, stderr io.Writer) int {
	h := &hooi{args: args[1:], stdout: stdout, stderr: stderr}
	err := h.parse(args[0])
	if err == nil {
		err = h.run()
	}
	var code exitCode
	if errors.As(err, &code) {
		return int(code)
	} else if err != nil {
		fmt.Fprintln(stderr, "hooi:", err)
		return 1
	}
	return 0
}

// exitCode ends a run with that code; what it has to say is on stderr.
type exitCode int

func (c exitCode) Error() string { return fmt.Sprintf("exit %d", int(c)) }

// hooi is one run: its command line, which a spawn child runs again,
// its writers, its flags and what parse derives from them.
type hooi struct {
	args           []string
	stdout, stderr io.Writer

	opts core.Options // -ranks, -eps, -iters, -tol, -threads, -seed

	input, ranksIn, update, ckptDir        string
	distM, grain, method, peers, chaosKill string
	np, rank, ckptEvery, maxRestart        int
	distTO                                 time.Duration
	quiet                                  bool

	p   int // -dist P's rank count
	g   dist.Grain
	m   dist.Method
	cfg dist.Config
}

// flags defines every flag on a set named name. A -dist spawn child
// parses its parent's command line again, so each flag has one copy.
func (h *hooi) flags(name string) *flag.FlagSet {
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	fs.SetOutput(h.stderr)
	fs.StringVar(&h.input, "input", "", "input tensor in .tns format (required)")
	fs.StringVar(&h.ranksIn, "ranks", "", "comma-separated decomposition ranks, one per mode (required)")
	fs.IntVar(&h.opts.MaxIters, "iters", 20, "maximum ALS sweeps (1 = a one-pass randomized ST-HOSVD from the random start)")
	fs.Float64Var(&h.opts.Tol, "tol", 1e-5, "fit-change stopping tolerance (negative disables)")
	fs.IntVar(&h.opts.Threads, "threads", 0, "shared-memory threads (0 = GOMAXPROCS)")
	fs.Float64Var(&h.opts.Eps, "eps", 0, "adaptive-rank threshold in (0,1]: each mode keeps the sketched directions with sigma^2 >= eps^2*||X||^2/N, a per-value count that bounds no total error (-ranks becomes an optional cap)")
	fs.Int64Var(&h.opts.Seed, "seed", 1, "random seed")
	fs.StringVar(&h.distM, "dist", "", "distributed mode: a rank count (simulated, in-process), \"tcp\" (join a multi-process group as one rank), or \"spawn\" (fork -np rank processes locally); empty or 0 = shared memory")
	fs.StringVar(&h.grain, "grain", "fine", "distributed task grain: fine | coarse")
	fs.StringVar(&h.method, "method", "hp", "distributed placement: hp | rd | bl")
	fs.IntVar(&h.np, "np", 4, "rank-process count for -dist spawn")
	fs.IntVar(&h.rank, "rank", -1, "this process's rank for -dist tcp (under -dist spawn, set by the parent for each child)")
	fs.StringVar(&h.peers, "peers", "", "comma-separated host:port of every rank (index = rank) for -dist tcp")
	fs.DurationVar(&h.distTO, "dist-timeout", 2*time.Minute, "TCP transport receive/write deadline; a stalled or dead peer fails the run after this long (negative disables)")
	fs.StringVar(&h.update, "update", "", "comma-separated delta tensors (.tns) to ingest incrementally after the initial convergence")
	fs.BoolVar(&h.quiet, "q", false, "print only the final fit")
	fs.StringVar(&h.ckptDir, "checkpoint", "", "checkpoint directory: write a crash-consistent snapshot every -ckpt-every sweeps and resume from the newest usable one on startup")
	fs.IntVar(&h.ckptEvery, "ckpt-every", 1, "sweeps between checkpoints when -checkpoint is set")
	fs.IntVar(&h.maxRestart, "max-restarts", 3, "-dist spawn: how many times to restart the whole rank group after a process failure before giving up (restarts resume from -checkpoint)")
	fs.StringVar(&h.chaosKill, "chaos-kill", "", "fault injection for recovery drills: R@S kills rank R as it enters 1-based sweep S (spawn ranks exit hard; simulated ranks fail typed)")
	return fs
}

// modeFlags maps each flag that only one mode reads to the refusal,
// after the flag's name, that the other mode gives when it is set. A
// -dist world's ranks run one thread each from the seeded random start.
var modeFlags = map[string]string{
	"threads": " is a shared-memory engine option; it cannot be combined with -dist",
	"update":  " is a shared-memory engine feature; it cannot be combined with -dist",
	"eps":     " adaptive rank is a shared-memory engine feature; it cannot be combined with -dist",
	"grain":   needsDist, "method": needsDist, "np": needsDist, "rank": needsDist, "peers": needsDist,
	"dist-timeout": needsDist, "max-restarts": needsDist, "chaos-kill": needsDist,
}

const needsDist = " is a distributed option; it needs -dist"

// parse reads the command line and refuses what its mode does not take.
func (h *hooi) parse(name string) error {
	fs := h.flags(name)
	if err := fs.Parse(h.args); errors.Is(err, flag.ErrHelp) {
		return exitCode(0)
	} else if err != nil {
		return exitCode(2)
	}
	// A spawn child's -rank and -peers follow the parent's arguments,
	// where a positional argument would stop the child's flag parsing.
	if h.input == "" || (h.ranksIn == "" && h.opts.Eps == 0) || fs.NArg() > 0 {
		fs.Usage()
		return exitCode(2)
	}
	var err error
	if h.ranksIn != "" {
		if h.opts.Ranks, err = parseRanks(h.ranksIn); err != nil {
			return err
		}
	}
	if h.ckptEvery < 1 {
		return fmt.Errorf("-ckpt-every must be at least 1; got %d", h.ckptEvery)
	}
	distributed := h.distM != "" && h.distM != "0"
	fs.Visit(func(f *flag.Flag) {
		if r, ok := modeFlags[f.Name]; ok && (r == needsDist) != distributed && err == nil {
			err = errors.New("-" + f.Name + r)
		}
	})
	if err != nil || !distributed {
		return err
	}
	h.cfg = dist.Config{Ranks: h.opts.Ranks, MaxIters: h.opts.MaxIters, Tol: h.opts.Tol, Seed: h.opts.Seed,
		CheckpointDir: h.ckptDir, CheckpointEvery: h.ckptEvery}
	if h.cfg.Fault, err = h.chaosHook(); err != nil {
		return err
	}
	if h.g, err = dist.ParseGrain(h.grain); err != nil {
		return err
	}
	if h.m, err = dist.ParseMethod(h.method); err != nil {
		return err
	}
	if h.p, err = strconv.Atoi(h.distM); !h.group() && (err != nil || h.p < 1) {
		return fmt.Errorf("-dist wants a rank count, \"tcp\", or \"spawn\"; got %q", h.distM)
	}
	return nil
}

// group reports whether the run is -dist tcp's or -dist spawn's.
func (h *hooi) group() bool { return h.distM == "tcp" || h.distM == "spawn" }

// run reads the input and solves in the mode parse settled.
func (h *hooi) run() error {
	readStart := time.Now()
	x, err := tensor.ReadTNSFile(h.input)
	readTime := time.Since(readStart)
	if err != nil {
		return err
	}
	// The spawn supervisor (-rank -1) and every rank other than 0 stay
	// silent: rank 0 of the process group reports for everyone.
	if !h.quiet && !(h.group() && h.rank != 0) {
		fmt.Fprintf(h.stdout, "tensor: dims=%v nnz=%d\n", x.Dims, x.NNZ())
	}
	switch {
	case h.distM == "" || h.distM == "0":
		return h.shared(x, readTime)
	case h.distM == "spawn" && h.rank < 0:
		return h.spawn()
	case h.group():
		return h.runRank(x)
	}
	part, err := dist.MakePartition(x, h.p, h.g, h.m, h.opts.Seed)
	if err != nil {
		return err
	}
	res, err := dist.Decompose(x, part, h.cfg)
	if err != nil {
		return err
	}
	h.distReport(part, res, "simulated")
	return nil
}

// shared runs the shared-memory engine, resumed from -checkpoint when
// it holds a usable checkpoint.
func (h *hooi) shared(x *tensor.COO, readTime time.Duration) error {
	h.opts.MeasureAllocs = !h.quiet
	plan, err := core.NewPlan(x, h.opts)
	if err != nil {
		return err
	}
	eng, from, sweep, err := core.OpenEngine(plan, h.ckptDir, h.ckptEvery)
	if err != nil {
		return err
	}
	if from != "" && !h.quiet {
		fmt.Fprintf(h.stdout, "resumed from %s (sweep %d)\n", from, sweep)
	}
	dec, err := eng.Run(context.Background())
	switch {
	case err != nil:
		return err
	case h.update != "":
		return h.updates(eng, dec)
	case h.quiet:
		fmt.Fprintf(h.stdout, "%.10f\n", dec.Fit)
	default:
		h.report(x, dec, readTime)
	}
	return nil
}

// runRank joins a multi-process group as one rank: a -dist tcp process
// started by hand, or a -dist spawn child, which listens on the socket
// its parent bound and passed down as file descriptor 3. Every process
// of the group runs the same deterministic solve; rank 0 reports.
func (h *hooi) runRank(x *tensor.COO) error {
	peers := strings.Split(h.peers, ",")
	for i := range peers {
		peers[i] = strings.TrimSpace(peers[i])
	}
	if len(peers) < 1 || peers[0] == "" {
		return errors.New("-dist tcp needs -peers host:port,...")
	}
	if h.rank < 0 || h.rank >= len(peers) {
		return fmt.Errorf("-dist tcp needs -rank in [0,%d)", len(peers))
	}
	opt := mpi.TCPOptions{Timeout: h.distTO}
	if h.distM == "spawn" {
		ln, err := net.FileListener(os.NewFile(3, "listener"))
		if err != nil {
			return fmt.Errorf("rank %d: inherited listener fd 3: %v", h.rank, err)
		}
		opt.Listener = ln
	}
	w, err := mpi.ConnectTCP(context.Background(), h.rank, peers, opt)
	if err != nil {
		return err
	}
	defer w.Close() // a no-op once DecomposeWorld has run the world
	part, err := dist.MakePartition(x, len(peers), h.g, h.m, h.opts.Seed)
	if err != nil {
		return err
	}
	res, err := dist.DecomposeWorld(context.Background(), w, x, part, h.cfg)
	// Ranks that failed because some OTHER rank died — aborted by the
	// local teardown, or observing the dead peer's connection drop —
	// exit with a distinct code, so the supervisor attributes the
	// failure to the process that actually caused it (which died with
	// its own exit code) instead of the EOF storm it triggered.
	if errors.Is(err, mpi.ErrAborted) || errors.Is(err, mpi.ErrPeerDied) || errors.Is(err, mpi.ErrPeerClosed) {
		fmt.Fprintln(h.stderr, "hooi:", err)
		return exitCode(exitSecondary)
	} else if err != nil {
		return err
	}
	if h.rank == 0 { // replicated result; only rank 0 speaks
		h.distReport(part, res, fmt.Sprintf("tcp wire=%dB", w.WireBytes()))
	}
	return nil
}

// report prints a shared-memory run's fit, phases, storage, TTMc and
// TRSVD accounting, and the fit per sweep.
func (h *hooi) report(x *tensor.COO, dec *core.Result, readTime time.Duration) {
	w := h.stdout
	fmt.Fprintln(w, hypertensor.Summary(dec))
	if h.opts.Eps > 0 {
		fmt.Fprintf(w, "eps %g selected ranks %v\n", h.opts.Eps, dec.ChosenRanks)
	}
	fmt.Fprintf(w, "timings: read=%v init=%v symbolic=%v ttmc=%v trsvd=%v core=%v (steady-state allocs/sweep %d, %d B/sweep)\n",
		readTime, dec.Timings.Init, dec.Timings.Symbolic, dec.Timings.TTMc, dec.Timings.TRSVD, dec.Timings.Core,
		dec.AllocsPerSweep, dec.AllocBytesPerSweep)
	// y is the one buffer every mode's Y_(n) takes turns in; a split
	// mode's singleton rows are narrow there.
	fmt.Fprintf(w, "storage: index=%d B (%.2f B/nnz) streams=%d B y=%d B",
		dec.IndexBytes, float64(dec.IndexBytes)/float64(x.NNZ()), dec.StreamBytes, dec.YBytes)
	// The process's peak resident set so far (VmHWM), where the kernel reports it.
	if kb, ok := peakRSSKiB(); ok {
		fmt.Fprintf(w, " VmHWM=%d kB", kb)
	}
	fmt.Fprintln(w)
	// The measured count sits next to what each strategy was predicted
	// to cost, so a strategy choice that the input proves wrong shows
	// here.
	flatMadds, treeMadds := core.PredictSweepMadds(x, dec.ChosenRanks, h.opts.Threads)
	fmt.Fprintf(w, "ttmc: strategy=%s flops=%d (%d madds/sweep; predicted flat=%d dtree=%d)",
		dec.TTMc, dec.TTMcFlops, dec.TTMcFlops/int64(max(dec.Iters, 1)), flatMadds, treeMadds)
	if dec.TTMc == core.TTMcDTree {
		fmt.Fprintf(w, " (node recompute time %v)", dec.Timings.TTMcNodes)
	} else {
		// Per mode; ~1 means the file's order leaves the kernel nothing to factor out.
		fmt.Fprintf(w, " runs=%.2f", dec.TTMcRuns)
	}
	// Per mode, per sweep: the gathers of a tall mode's factor rows show here.
	nsPerNZ := make([]float64, len(dec.Timings.TTMcModes))
	for n, d := range dec.Timings.TTMcModes {
		nsPerNZ[n] = float64(d.Nanoseconds()) / float64(max(dec.Iters, 1)) / float64(max(x.NNZ(), 1))
	}
	fmt.Fprintf(w, " ns/nnz=%.1f\n", nsPerNZ)
	// The solver each mode resolved to, how often it read Y_(n), and the
	// Lanczos solves that stopped at the Krylov cap short of their
	// tolerance (HOOI carries on with their approximate vectors).
	// Then the singleton census per mode: the rows of Y_(n) one nonzero
	// builds, the mode they group by, and the predicted madds of one Gram
	// product plain/split where the split is taken.
	fmt.Fprintf(w, "trsvd: solver=%v solves=%d passes=%d (%.1f/solve) madds=%d unconverged=%d %s\n",
		dec.SVD, dec.TRSVDSolves, dec.TRSVDPasses, float64(dec.TRSVDPasses)/float64(max(dec.TRSVDSolves, 1)),
		dec.TRSVDMadds, dec.TRSVDUnconverged, census(dec.Census, len(dec.SVD)))
	// Which path the dense kernels took on this CPU (avx512, avx2 or go);
	// the fit does not depend on it.
	fmt.Fprintf(w, "kernels: %s\n", dense.KernelName())
	for i, f := range dec.FitHistory {
		fmt.Fprintf(w, "  sweep %2d: fit %.8f\n", i+1, f)
	}
}

// census formats the per-mode singleton census of the trsvd: line, a
// dash wherever a mode took none or does not take the split.
func census(c []ttm.Census, order int) string {
	singles, group, gram := make([]string, order), make([]string, order), make([]string, order)
	for n := range order {
		singles[n], group[n], gram[n] = "-", "-", "-"
		if c == nil || c[n].Plain == 0 {
			continue
		}
		singles[n] = strconv.Itoa(c[n].Singletons)
		if c[n].Group >= 0 {
			group[n] = strconv.Itoa(c[n].Group)
		}
		if c[n].Taken() {
			gram[n] = fmt.Sprintf("%d/%d", c[n].Plain, c[n].Split)
		}
	}
	return fmt.Sprintf("singletons=[%s] group=[%s] gram=[%s]",
		strings.Join(singles, " "), strings.Join(group, " "), strings.Join(gram, " "))
}

// updates streams the -update deltas through the resident engine and
// reports the incremental-path accounting, then compares the terminal
// fit against a from-scratch solve of the engine's merged tensor.
func (h *hooi) updates(eng *core.Engine, initial *core.Result) error {
	w := h.stdout
	if !h.quiet {
		fmt.Fprintf(w, "initial: fit %.8f after %d sweeps\n", initial.Fit, initial.Iters)
	}
	last := initial
	for step, path := range strings.Split(h.update, ",") {
		delta, err := tensor.ReadTNSFile(strings.TrimSpace(path))
		if err != nil {
			return err
		}
		if last, err = eng.Update(delta); err != nil {
			return err
		}
		if h.quiet {
			continue
		}
		perSweep := last.UpdateMadds / int64(last.UpdateSweeps)
		fmt.Fprintf(w, "update %d (%s): +%d nnz -> fit %.8f in %d sweeps; ttmc %s madds/sweep vs %s full-sweep (%.2fx less)\n",
			step+1, strings.TrimSpace(path), last.DeltaNNZ, last.Fit, last.UpdateSweeps,
			humanInt(perSweep), humanInt(last.FullSweepMadds),
			float64(last.FullSweepMadds)/float64(perSweep))
	}
	if h.quiet {
		// Quiet mode reports only the incremental fit; skip the (cold,
		// expensive) from-scratch comparison solve entirely.
		fmt.Fprintf(w, "%.10f\n", last.Fit)
		return nil
	}
	scratch, err := core.Decompose(eng.Tensor(), h.opts)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "from-scratch solve of the merged tensor: fit %.8f in %d sweeps; |dfit| = %.3g\n",
		scratch.Fit, scratch.Iters, math.Abs(last.Fit-scratch.Fit))
	return nil
}

// distReport prints a distributed run's fit, under -q alone, or the
// paper's Tables II-IV: wall time per sweep, the per-phase maxima over
// the ranks, and per mode the comm bytes and the W_TTMc and W_TRSVD
// work, max and avg per rank.
func (h *hooi) distReport(part *dist.Partition, res *dist.Result, transport string) {
	w := h.stdout
	if h.quiet {
		fmt.Fprintf(w, "%.10f\n", res.Fit)
		return
	}
	st, p := res.Stats, part.P
	fmt.Fprintf(w, "distributed %s on %d ranks (%s): fit %.6f after %d sweeps (%.3fs/iter wall)\n",
		part.Name(), p, transport, res.Fit, res.Iters, st.WallPerIter.Seconds())
	fmt.Fprintf(w, "max phase times: ttmc=%v trsvd=%v core=%v symbolic=%v\n",
		dist.MaxDuration(st.TTMcTime), dist.MaxDuration(st.TRSVDTime),
		dist.MaxDuration(st.CoreTime), dist.MaxDuration(st.SymbolicTime))
	for r := 0; r < p; r++ {
		fmt.Fprintf(w, "  rank %d: wall %v, sent %d B payload (core %d, assemble %d)\n",
			r, st.RankWall[r].Round(time.Millisecond), st.SentBytes[r], st.CoreBytes[r], st.AssembleBytes[r])
	}
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
		fmt.Fprintf(w, "  mode %d comm: max %d B, avg %.0f B per rank (expand %.0f, fold %.0f, trsvd %.0f in %.0f collectives); W_TTMc max %d avg %.0f, W_TRSVD max %d avg %.0f\n",
			n+1, maxC, avg(sumE+sumF+sumS), avg(sumE), avg(sumF), avg(sumS), avg(sumM), maxT, avg(sumT), maxS, avg(sumW))
	}
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

// exitSecondary is the exit code of a rank process whose run was
// aborted by another rank's failure: its own error carries no root
// cause, and the supervisor skips it when attributing the failure.
const exitSecondary = 3

// chaosHook reads -chaos-kill R@S into a hook that kills rank R as it
// enters sweep S, or nil when the flag is empty. A rank process dies for
// real, so the spawn supervisor exercises its production
// detect-and-restart path; in-process ranks are goroutines, whose kill
// is a typed transport fault, and recovery is a rerun of the command.
func (h *hooi) chaosHook() (func(rank, sweep int), error) {
	if h.chaosKill == "" {
		return nil, nil
	}
	rs, ss, ok := strings.Cut(h.chaosKill, "@")
	killRank, rerr := strconv.Atoi(rs)
	killSweep, serr := strconv.Atoi(ss)
	if !ok || rerr != nil || serr != nil || killRank < 0 || killSweep < 1 {
		return nil, fmt.Errorf("-chaos-kill wants R@S, a rank R >= 0 and a 1-based sweep S; got %q", h.chaosKill)
	}
	if !h.group() {
		return mpi.FaultConfig{KillRank: killRank, KillAtSweep: killSweep}.SweepHook(), nil
	}
	return func(r, sweep int) {
		if r == killRank && sweep == killSweep {
			fmt.Fprintf(h.stderr, "hooi: rank %d: injected chaos kill at sweep %d\n", r, sweep)
			os.Exit(137)
		}
	}, nil
}

// spawn starts -np children of this binary and supervises them. Each
// child runs this command line with its own -rank and the -peers list
// appended (the last occurrence of a flag wins) and listens on a
// loopback socket bound here and inherited as fd 3, so the ephemeral
// ports are race-free. If a rank process dies and -checkpoint is set,
// the whole world restarts with exponential backoff and resumes from
// the last coordinated checkpoint; without -checkpoint the failure is
// terminal, with the originating rank's exit code.
func (h *hooi) spawn() error {
	if h.np < 1 {
		return errors.New("-dist spawn needs -np >= 1")
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	maxAttempts := 1
	if h.ckptDir != "" && h.maxRestart > 0 {
		maxAttempts += h.maxRestart
	}
	for attempt := 0; ; attempt++ {
		rank, code, summary, err := h.spawnOnce(exe, attempt)
		if code == 0 || err != nil {
			return err
		}
		fmt.Fprintf(h.stderr, "hooi: rank %d failed (exit %d): %s\n", rank, code, summary)
		if attempt+1 >= maxAttempts {
			if h.ckptDir == "" {
				fmt.Fprintln(h.stderr, "hooi: no -checkpoint directory; cannot restart")
			}
			return exitCode(code)
		}
		// Exponential backoff: doubles from 250ms, capped at 5s.
		backoff := min(250*time.Millisecond<<min(attempt, 5), 5*time.Second)
		fmt.Fprintf(h.stderr, "hooi: restarting %d ranks from checkpoint %s in %v (attempt %d of %d)\n",
			h.np, h.ckptDir, backoff, attempt+2, maxAttempts)
		time.Sleep(backoff)
	}
}

// spawnOnce launches and waits for one full rank group. It returns exit
// code 0 when every rank exits cleanly, else the failure of the
// originating rank: the earliest-exiting rank whose code is not
// exitSecondary (falling back to the earliest failure when every exit
// is secondary), with the last line of its stderr.
func (h *hooi) spawnOnce(exe string, attempt int) (rank, code int, summary string, err error) {
	lns, cmds, addrs := make([]*net.TCPListener, h.np), make([]*exec.Cmd, h.np), make([]string, h.np)
	defer func() { // an error return stops the ranks started so far
		for r, cmd := range cmds {
			lns[r].Close() // a no-op where closed or nil
			if cmd != nil && err != nil {
				cmd.Process.Kill()
				cmd.Wait()
			}
		}
	}()
	for r := range h.np {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return 0, 0, "", err
		}
		lns[r] = ln.(*net.TCPListener)
		addrs[r] = ln.Addr().String()
	}
	// The ranks' output reaches the supervisor's writers one write at a time.
	var mu sync.Mutex
	stdout, stderr := &syncWriter{&mu, h.stdout}, &syncWriter{&mu, h.stderr}
	stderrs := make([]bytes.Buffer, h.np)
	for r := range h.np {
		args := append(slices.Clip(h.args), "-rank", strconv.Itoa(r), "-peers", strings.Join(addrs, ","))
		if attempt > 0 {
			// Chaos kills fire on the first attempt only: the restarted
			// group must be able to finish the run.
			args = append(args, "-chaos-kill", "")
		}
		f, err := lns[r].File() // dup of the listening socket for the child
		if err != nil {
			return 0, 0, "", err
		}
		cmd := exec.Command(exe, args...)
		cmd.Stdout = stdout
		cmd.Stderr = io.MultiWriter(stderr, &stderrs[r])
		cmd.ExtraFiles = []*os.File{f} // child fd 3
		err = cmd.Start()
		f.Close()
		if err != nil {
			return 0, 0, "", fmt.Errorf("spawning rank %d: %v", r, err)
		}
		lns[r].Close()
		cmds[r] = cmd
	}

	// Wait for every rank concurrently. The first process to die with a
	// root cause is the one to blame (ranks it takes down exit later, and
	// with exitSecondary); when every exit is secondary, the first.
	done := make(chan [2]int, h.np) // rank, exit code, in completion order
	for r, cmd := range cmds {
		go func() {
			err := cmd.Wait()
			code := cmd.ProcessState.ExitCode() // -1 when killed by a signal
			if err != nil && code == 0 {
				code = -1 // it exited cleanly, but its output was not relayed
			}
			done <- [2]int{r, code}
		}()
	}
	for range h.np {
		if e := <-done; e[1] != 0 && (code == 0 || code == exitSecondary && e[1] != exitSecondary) {
			rank, code = e[0], e[1]
		}
	}
	// The summary is the failed rank's last non-empty stderr line.
	lines := strings.Split(strings.TrimSpace(stderrs[rank].String()), "\n")
	return rank, code, cmp.Or(strings.TrimSpace(lines[len(lines)-1]), "no stderr output"), nil
}

// syncWriter serializes the writes of concurrent copies into w.
type syncWriter struct {
	mu *sync.Mutex
	w  io.Writer
}

func (s *syncWriter) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.w.Write(p)
}
