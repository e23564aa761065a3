package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime/debug"
	"time"

	"hypertensor/internal/core"
	"hypertensor/internal/dense"
	"hypertensor/internal/dist"
	"hypertensor/internal/par"
	"hypertensor/internal/symbolic"
	"hypertensor/internal/tensor"
	"hypertensor/internal/ttm"
)

// driverSolve is the paper's Algorithm 3 written against the layers'
// public kernel entry points, one span per call — the shape of
// internal/baseline/met.go with the symbolic flat TTMc in place of the
// MET chain. It shares no loop with core.Engine, so agreement of the two
// fits checks the engine, and the difference of the two walls
// (core.driver_gap) is what the engine does that this outside view
// cannot attribute to a layer.
func driverSolve(rec *recorder, path string, ranks []int, seed int64, T int) (x *tensor.COO, sym *symbolic.Structure, fit float64, err error) {
	defer rec.begin("driver")()
	end := rec.begin("tensor.read")
	x, err = tensor.ReadTNSFile(path)
	end()
	if err != nil {
		return nil, nil, 0, err
	}
	end = rec.begin("symbolic.build")
	sym = symbolic.Build(x, T)
	end()
	normX := x.Norm(T)
	// Y_(n) is first touched inside the first sweep, here and in
	// runEngine alike: the reader's garbage goes back to the OS first, as
	// it has in a rep by the time NewEngine allocates. On this kind of VM
	// the faults are a visible part of the first sweep.
	debug.FreeOSMemory()
	state := core.NewSweepState(dist.DefaultInitial(x.Dims, ranks, seed), seed)
	u := state.Factors
	ys := make([]*dense.Matrix, len(u))
	for n := range ys {
		ys[n] = dense.NewMatrix(sym.Modes[n].NumRows(), ttm.RowSize(u, n))
	}
	last := len(u) - 1
	for sweep := 0; sweep < coldSweeps; sweep++ {
		endSweep := rec.begin("driver.sweep")
		for n := range u {
			sm := &sym.Modes[n]
			end = rec.begin("ttm.ttmc")
			ttm.TTMcSched(ys[n], x, sm, u, T, par.ScheduleBalanced)
			end()
			end = rec.begin("trsvd.solve")
			uc, _, err := state.SolveDense(ys[n], n, ranks[n], core.SVDLanczos, T, nil)
			end()
			if err != nil {
				endSweep()
				return nil, nil, 0, fmt.Errorf("driver: TRSVD in mode %d: %w", n, err)
			}
			end = rec.begin("core.scatter")
			u[n].Zero()
			for r, row := range sm.Rows {
				copy(u[n].Row(int(row)), uc.Row(r))
			}
			end()
		}
		end = rec.begin("ttm.core")
		g := ttm.Core(ys[last], &sym.Modes[last], u[last], ranks, T)
		end()
		fit = core.FitFromNorms(normX, g.Norm())
		endSweep()
	}
	return x, sym, fit, nil
}

// engineRun is the same fixed-sweep problem on core.Engine, from the
// same initial factors as the driver, timed from outside.
type engineRun struct {
	plan, run float64 // seconds: NewPlan+NewEngine, Engine.Run
	res       *core.Result
}

func runEngine(x *tensor.COO, opts core.Options) (engineRun, error) {
	var e engineRun
	debug.FreeOSMemory() // see driverSolve
	t0 := time.Now()
	plan, err := core.NewPlan(x, opts)
	if err != nil {
		return e, err
	}
	eng := core.NewEngine(plan)
	e.plan = time.Since(t0).Seconds()
	t1 := time.Now()
	e.res, err = eng.Run(context.Background())
	e.run = time.Since(t1).Seconds()
	return e, err
}

// probeCore runs the engine against the driver and records the core
// layer's view of the solve: the phase split from Result.Timings, the
// allocation rate, the plain single-thread baseline of the same problem,
// and one resident-engine update.
func probeCore(m *metricSet, rec *recorder, out *passResult, w *workload, x, delta *tensor.COO, driverFit float64, seed int64, T int) error {
	defer rec.begin("probe.core")()
	opts := core.Options{
		Ranks: w.Ranks, MaxIters: coldSweeps, Tol: -1, Seed: seed, Threads: T,
		Initial: dist.DefaultInitial(x.Dims, w.Ranks, seed), MeasureAllocs: true,
	}
	end := rec.begin("core.engine_run")
	e, err := runEngine(x, opts)
	end()
	if err != nil {
		return err
	}
	out.Attempted++
	if fit := e.res.Fit; !(math.Abs(fit-driverFit) <= 1e-6) {
		out.fail("engine fit %.9f and layer-by-layer driver fit %.9f differ by more than 1e-6", fit, driverFit)
	}
	tm := e.res.Timings
	ttmc, trsvd, coreS := tm.TTMc.Seconds(), tm.TRSVD.Seconds(), tm.Core.Seconds()
	m.add("core.plan_s", "s", e.plan)
	m.add("core.run_s", "s", e.run)
	m.add("core.ttmc_s", "s", ttmc)
	m.add("core.trsvd_s", "s", trsvd)
	m.add("core.core_s", "s", coreS)
	m.add("core.other_s", "s", e.run-ttmc-trsvd-coreS)
	m.add("core.ttmc_share", "ratio", ttmc/e.run)
	m.add("core.trsvd_share", "ratio", trsvd/e.run)
	m.add("core.allocs_per_sweep", "count", float64(e.res.AllocsPerSweep))
	m.add("core.fit", "ratio", e.res.Fit)
	m.add("core.driver_gap", "ratio", (e.run-rec.total("driver.sweep", 0))/e.run)

	sweepT := e.run / float64(e.res.Iters)
	sweep1 := sweepT
	if T > 1 {
		opts.Threads, opts.MeasureAllocs = 1, false
		end = rec.begin("core.engine_run_t1")
		e1, err := runEngine(x, opts)
		end()
		if err != nil {
			return err
		}
		sweep1 = e1.run / float64(e1.res.Iters)
	}
	m.add("core.sweep_s_t1", "s", sweep1)
	m.add("core.par_eff", "ratio", sweep1/(float64(T)*sweepT))

	// One update on a converged resident engine, configured as the
	// update workload configures its sessions.
	uw := *w
	uw.Kind = kindUpdate
	defer rec.begin("core.update_probe")()
	plan, err := core.NewPlan(x, uw.coldOptions(seed, T))
	if err != nil {
		return err
	}
	eng := core.NewEngine(plan)
	if _, err := eng.Run(context.Background()); err != nil {
		return err
	}
	t0 := time.Now()
	res, err := eng.Update(delta)
	if err != nil {
		return err
	}
	m.add("core.update_s", "s", time.Since(t0).Seconds())
	m.add("core.update_sweeps", "count", float64(res.UpdateSweeps))
	m.add("core.update_madds", "count", float64(res.UpdateMadds))
	m.add("core.full_sweep_madds", "count", float64(res.FullSweepMadds))
	return nil
}

// tracedPass produces the per-layer numbers of one workload: one
// untraced and one traced rep of the workload's own operation (their
// difference is the tracing overhead), the layer-by-layer driver solve
// against the engine, and every layer's probe on the workload's tensor.
// Every workload runs every probe, so that each per-layer metric exists
// on each workload and a layer's numbers can be compared across inputs.
func tracedPass(w *workload, in input, seed int64, host hostInfo, outDir string) passResult {
	out := passResult{Workload: w.Name, Seed: seed, Traced: true}
	rec := newRecorder(w.Name)
	var m metricSet
	err := func() error {
		T := host.Threads
		deltas, err := readDeltas(in)
		if err != nil {
			return err
		}
		warm, err := runRep(w, in, deltas, seed, T, nil, nil)
		if err != nil {
			return fmt.Errorf("warm-up rep: %w", err)
		}
		// The traced rep runs between two untraced ones, so drift of the
		// host over the three does not read as tracing overhead.
		var untraced, traced float64
		for _, r := range []struct {
			label string
			rec   *recorder
		}{{"untraced rep before", nil}, {"traced rep", rec}, {"untraced rep after", nil}} {
			rec.rep = 1
			endRep := r.rec.begin("rep")
			got, err := runRep(w, in, deltas, seed, T, r.rec, nil)
			endRep()
			rec.rep = 0 // everything else in this pass is probe work
			if err != nil {
				return fmt.Errorf("%s: %w", r.label, err)
			}
			out.judge(r.label, got, warm, nil)
			if r.rec == nil {
				untraced += got.e2e / 2
			} else {
				traced = got.e2e
			}
		}
		m.add("harness.trace_overhead_share", "ratio", (traced-untraced)/untraced)

		x, sym, driverFit, err := driverSolve(rec, in.Tensor, w.Ranks, seed, T)
		if err != nil {
			return err
		}
		st, err := os.Stat(in.Tensor)
		if err != nil {
			return err
		}
		read := rec.total("tensor.read", 0)
		m.add("tensor.read_s", "s", read)
		m.add("tensor.read_mb_per_s", "MB/s", float64(st.Size())/1e6/read)
		m.add("symbolic.build_s", "s", rec.total("symbolic.build", 0))

		probeDense(&m, rec, host)
		if err := probeCore(&m, rec, &out, w, x, deltas[0], driverFit, seed, T); err != nil {
			return err
		}
		csf, alto, err := probeStorage(&m, rec, x, sym, deltas[0], T)
		if err != nil {
			return err
		}
		if err := probeKernels(&m, rec, x, sym, csf, alto, w.Ranks, seed, T); err != nil {
			return err
		}
		probePar(&m, rec, sym, T)
		if err := probeDist(&m, rec, x, w, seed); err != nil {
			return err
		}
		return probeMPI(&m, rec)
	}()
	if err != nil {
		out.Attempted++
		out.fail("traced pass: %v", err)
	}
	if err := rec.writeChrome(filepath.Join(outDir, "trace_"+w.Name+".json")); err != nil {
		out.Attempted++
		out.fail("write trace: %v", err)
	}
	out.Metrics = m.list
	out.SelfTime = rec.selfTimes()
	return out
}
