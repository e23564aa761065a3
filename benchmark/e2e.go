package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"runtime/debug"
	"strconv"
	"strings"
	"time"

	"hypertensor/internal/core"
	"hypertensor/internal/dense"
	"hypertensor/internal/dist"
	"hypertensor/internal/mpi"
	"hypertensor/internal/tensor"
)

// op is one checked operation: the solve of a rep, or one Engine.Update
// of a session. fail is empty when every check passed.
type op struct {
	fit  float64
	fail string
}

// rep is one file-to-factors repetition of a workload, timed from
// outside. With a hostClock the timings are in seconds of the quiet
// reference box (see calib.go), without one they are plain wall time.
type rep struct {
	e2e   float64 // .tns path in → factors and core out, seconds
	setup float64 // read + plan + engine build (dist: read + partition)
	sweep float64 // iterating calls (Run, DecomposeWorld, Updates) ÷ completed sweeps
	wall  float64 // e2e as the wall clock read it, whatever the host was doing
	// updates holds the Engine.Update times of an update session.
	updates []float64
	// netBytesPerSweep is the payload all ranks sent per sweep (dist).
	netBytesPerSweep float64
	ops              []op
}

// coldOptions are the shared-memory options of a workload: defaults
// everywhere except the ranks, the paper's stopping rule, the seed and
// the thread count (ISSUE 12 ground rules). A later change of a default
// therefore shows up here as a gain or a loss.
func (w *workload) coldOptions(seed int64, threads int) core.Options {
	o := core.Options{Ranks: w.Ranks, MaxIters: coldSweeps, Tol: -1, Seed: seed, Threads: threads}
	if w.Kind == kindUpdate {
		o.MaxIters, o.Tol = updateMaxIters, updateTol
	}
	return o
}

func (w *workload) distConfig(seed int64) dist.Config {
	return dist.Config{Ranks: w.Ranks, MaxIters: coldSweeps, Tol: -1, Seed: seed}
}

// orthoDefect is ‖UᵀU − I‖_max.
func orthoDefect(u *dense.Matrix) float64 {
	g := dense.MatMulTA(u, u, 1)
	var worst float64
	for i := 0; i < g.Rows; i++ {
		for j := 0; j < g.Cols; j++ {
			want := 0.0
			if i == j {
				want = 1
			}
			if d := math.Abs(g.At(i, j) - want); d > worst || math.IsNaN(d) {
				worst = d
			}
		}
	}
	return worst
}

// checkSolution applies the per-op output checks that need no reference:
// a finite fit, orthonormal factors, and a core whose norm reproduces
// the reported fit through ‖X − X̂‖² = ‖X‖² − ‖G‖².
func checkSolution(fit float64, factors []*dense.Matrix, g *tensor.Dense, normX float64) string {
	if math.IsNaN(fit) || math.IsInf(fit, 0) {
		return fmt.Sprintf("non-finite fit %v", fit)
	}
	for n, u := range factors {
		if d := orthoDefect(u); !(d <= 1e-8) {
			return fmt.Sprintf("mode %d factor: ‖UᵀU−I‖max = %.3g > 1e-8", n, d)
		}
	}
	if want := core.FitFromNorms(normX, g.Norm()); !(math.Abs(fit-want) <= 1e-9) {
		return fmt.Sprintf("fit %.12f does not match the core norm (%.12f)", fit, want)
	}
	return ""
}

// readDeltas loads a workload's delta stream; it is input preparation
// and never timed.
func readDeltas(in input) ([]*tensor.COO, error) {
	deltas := make([]*tensor.COO, len(in.Deltas))
	for i, p := range in.Deltas {
		d, err := tensor.ReadTNSFile(p)
		if err != nil {
			return nil, fmt.Errorf("read delta %s: %w", p, err)
		}
		deltas[i] = d
	}
	return deltas, nil
}

// runRep performs one repetition of the workload's operation, with spans
// around each call when rec is non-nil. hc, when non-nil, reads the
// host's slowdown at every phase boundary — before the read, between
// set-up and the iterating call, after it and after every update — and
// each phase is normalised by its two flanking readings; the readings
// themselves are outside every timed interval. Checks run after the
// clock has stopped.
func runRep(w *workload, in input, deltas []*tensor.COO, seed int64, threads int, rec *recorder, hc *hostClock) (*rep, error) {
	ctx := context.Background()
	r := &rep{}
	s0 := hc.slowdown()
	t0 := time.Now()
	end := rec.begin("tensor.read")
	x, err := tensor.ReadTNSFile(in.Tensor)
	end()
	if err != nil {
		return nil, fmt.Errorf("read %s: %w", in.Tensor, err)
	}

	if w.Kind == kindDist {
		end = rec.begin("dist.partition")
		part, err := dist.MakePartition(x, distRanks, dist.Fine, dist.MethodHypergraph, seed)
		end()
		if err != nil {
			return nil, err
		}
		setup := time.Since(t0).Seconds()
		s1 := hc.slowdown()
		t1 := time.Now()
		end = rec.begin("dist.solve")
		res, err := dist.DecomposeWorld(ctx, mpi.NewWorld(distRanks), x, part, w.distConfig(seed))
		end()
		if err != nil {
			return nil, err
		}
		solve := time.Since(t1).Seconds()
		s2 := hc.slowdown()
		r.wall = setup + solve
		r.setup = normalised(setup, s0, s1)
		solve = normalised(solve, s1, s2)
		r.sweep = solve / float64(res.Iters)
		r.e2e = r.setup + solve
		r.netBytesPerSweep = float64(res.Stats.TotalSentBytes()) / float64(res.Iters)
		rec.rankPhases(res.Stats)
		r.ops = []op{{res.Fit, checkSolution(res.Fit, res.Factors, res.Core, x.Norm(threads))}}
		return r, nil
	}

	end = rec.begin("core.plan")
	plan, err := core.NewPlan(x, w.coldOptions(seed, threads))
	end()
	if err != nil {
		return nil, err
	}
	end = rec.begin("core.engine")
	eng := core.NewEngine(plan)
	end()
	setup := time.Since(t0).Seconds()
	s1 := hc.slowdown()
	t1 := time.Now()
	end = rec.begin("core.run")
	res, err := eng.Run(ctx)
	end()
	if err != nil {
		return nil, err
	}
	run := time.Since(t1).Seconds()
	s2 := hc.slowdown()
	r.wall = setup + run
	r.setup = normalised(setup, s0, s1)
	iterating, sweeps := normalised(run, s1, s2), res.Iters
	r.e2e = r.setup + iterating
	r.ops = []op{{res.Fit, checkSolution(res.Fit, res.Factors, res.Core, x.Norm(threads))}}
	if w.Kind == kindUpdate {
		// The session is the cold solve plus its updates; the output
		// checks in between are the harness's time, not the session's.
		for _, d := range deltas {
			tu := time.Now()
			end = rec.begin("core.update")
			res, err := eng.Update(d)
			end()
			if err != nil {
				return nil, err
			}
			wall := time.Since(tu).Seconds()
			r.wall += wall
			s1, s2 = s2, hc.slowdown()
			wall = normalised(wall, s1, s2)
			r.updates = append(r.updates, wall)
			r.e2e += wall
			iterating += wall
			sweeps += res.Iters
			r.ops = append(r.ops, op{res.Fit, checkSolution(res.Fit, res.Factors, res.Core, eng.Tensor().Norm(threads))})
		}
	}
	r.sweep = iterating / float64(sweeps)
	return r, nil
}

// rankPhases lays each rank's accumulated TTMc / TRSVD / core time from
// dist.Stats under the dist.solve span just closed, one track per rank,
// so the compute-versus-wait split is visible in the trace. The totals
// are sums over sweeps, not individually timed intervals.
func (r *recorder) rankPhases(st *dist.Stats) {
	if r == nil {
		return
	}
	solve := len(r.spans) - 1
	for r.spans[solve].Name != "dist.solve" {
		solve--
	}
	const note = "accumulated over sweeps, from dist.Stats"
	for rank := 0; rank < st.P; rank++ {
		at := r.spans[solve].Start
		for _, ph := range []struct {
			name string
			d    time.Duration
		}{
			{"dist.rank.ttmc", st.TTMcTime[rank]},
			{"dist.rank.trsvd", st.TRSVDTime[rank]},
			{"dist.rank.core", st.CoreTime[rank]},
		} {
			r.synthetic(ph.name, solve, 1+rank, at, ph.d, note)
			at += ph.d
		}
	}
}

// resetPeakRSS returns freed heap to the OS and restarts the kernel's
// resident-set high-water mark, so that the next peakRSSMiB reading
// belongs to one rep — what a process that ran the operation once would
// have needed — and not to whatever garbage the reps before it left
// mapped. Where the kernel refuses (no clear_refs), the mark keeps
// accumulating over the pass and the metric is its end value.
func resetPeakRSS() {
	debug.FreeOSMemory()
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMiB reads the process's resident-set high-water mark.
func peakRSSMiB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", line, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// fail records one failed op of the pass with its reason.
func (p *passResult) fail(format string, args ...any) {
	p.Failed++
	p.Failures = append(p.Failures, fmt.Sprintf(format, args...))
}

// judge counts a rep's ops against the warm-up rep's: an op fails on its
// own check, on a fit that differs bitwise from the same op of the
// warm-up (the determinism contract), or — when ref, the committed
// reference for this seed, is non-nil — on a final fit more than 1e-6 off
// it.
func (p *passResult) judge(label string, r, warm *rep, ref *float64) {
	for i, o := range r.ops {
		p.Attempted++
		switch {
		case o.fail != "":
			p.fail("%s op %d: %s", label, i, o.fail)
		case warm != nil && (i >= len(warm.ops) || math.Float64bits(o.fit) != math.Float64bits(warm.ops[i].fit)):
			p.fail("%s op %d: fit %.17g differs from the warm-up rep's", label, i, o.fit)
		case ref != nil && i == len(r.ops)-1 && !(math.Abs(o.fit-*ref) <= 1e-6):
			p.fail("%s op %d: fit %.9f is off the committed reference %.9f by more than 1e-6", label, i, o.fit, *ref)
		}
	}
}

// untracedPass is the end-to-end measurement: one untimed warm-up rep,
// then timed reps of the same operation until the budget is spent, in a
// closed loop with one client. Between reps the heap is collected and
// returned to the OS, so each rep starts as a fresh invocation would and
// has a resident-set peak of its own.
func untracedPass(w *workload, in input, seed int64, threads int, budget time.Duration, ref *float64) passResult {
	out := passResult{Workload: w.Name, Seed: seed}
	deltas, err := readDeltas(in)
	hc := newHostClock(threads)
	var warm *rep
	if err == nil {
		warm, err = runRep(w, in, deltas, seed, threads, nil, hc)
	}
	if err != nil {
		out.Attempted++
		out.fail("warm-up rep: %v", err)
		return out
	}
	var e2e, wall, setup, sweep, updates, net, rss []float64
	var fit float64
	// A rep starts only while the budget has room for one as long as the
	// last: the pass then ends within its budget whatever the host does,
	// which is what keeps the driver's run count inside its time limit.
	start := time.Now()
	var lastRep time.Duration
	for len(e2e) == 0 || time.Since(start)+lastRep < budget {
		repStart := time.Now()
		resetPeakRSS()
		label := fmt.Sprintf("rep %d", len(e2e))
		r, err := runRep(w, in, deltas, seed, threads, nil, hc)
		if err != nil {
			// A rep that errors once will error again: report, don't spin.
			out.Attempted++
			out.fail("%s: %v", label, err)
			break
		}
		out.judge(label, r, warm, ref)
		e2e = append(e2e, r.e2e)
		wall = append(wall, r.wall)
		setup = append(setup, r.setup)
		sweep = append(sweep, r.sweep)
		if mib, err := peakRSSMiB(); err == nil {
			rss = append(rss, mib)
		}
		updates = append(updates, r.updates...)
		net = append(net, r.netBytesPerSweep)
		fit = r.ops[len(r.ops)-1].fit
		lastRep = time.Since(repStart)
	}
	if len(e2e) == 0 {
		return out
	}
	var m metricSet
	m.add("e2e_s", "s", e2e...)
	m.add("setup_s", "s", setup...)
	m.add("sweep_s", "s", sweep...)
	m.add("fit", "ratio", fit)
	if len(rss) > 0 {
		m.add("peak_rss_mb", "MiB", rss...)
	}
	m.add("fail_share", "ratio", float64(out.Failed)/float64(out.Attempted))
	m.add("e2e_wall_s", "s", wall...)
	m.add("host_slowdown", "ratio", hc.samples...)
	if w.Kind == kindUpdate {
		m.add("update_s", "s", updates...)
	}
	if w.Kind == kindDist {
		m.add("net_bytes_per_sweep", "bytes", net...)
	}
	out.Metrics = m.list
	return out
}
