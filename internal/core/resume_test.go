package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"hypertensor/internal/checkpoint"
	"hypertensor/internal/dense"
	"hypertensor/internal/gen"
)

func bitsEqual(t *testing.T, label string, a, b []float64) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: length %d vs %d", label, len(a), len(b))
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			t.Fatalf("%s: element %d differs bitwise: %v vs %v", label, i, a[i], b[i])
		}
	}
}

func resultsBitwiseEqual(t *testing.T, label string, a, b *Result) {
	t.Helper()
	bitsEqual(t, label+" FitHistory", a.FitHistory, b.FitHistory)
	if len(a.Factors) != len(b.Factors) {
		t.Fatalf("%s: factor count differs", label)
	}
	for n := range a.Factors {
		if a.Factors[n].Rows != b.Factors[n].Rows || a.Factors[n].Cols != b.Factors[n].Cols {
			t.Fatalf("%s: factor %d shape differs", label, n)
		}
		bitsEqual(t, label+" factor", a.Factors[n].Data, b.Factors[n].Data)
	}
	bitsEqual(t, label+" core", a.Core.Data, b.Core.Data)
	if a.Iters != b.Iters {
		t.Fatalf("%s: iters %d vs %d", label, a.Iters, b.Iters)
	}
}

// TestResumeBitwiseIdentical is the tentpole contract: for either TTMc
// strategy and either solver the default resolves to (Gram at these
// ranks), kill a run at sweep 3 (by loading its sweep-3 checkpoint
// into a fresh plan) and the resumed run's fit trajectory, factors, and
// core must be bitwise identical to the uninterrupted run's. So must a
// run resumed from the last (sweep-6) checkpoint, which runs no sweep
// and still reports the solver every mode ran.
func TestResumeBitwiseIdentical(t *testing.T) {
	x, ranks := presetTensor(t, "netflix", 0.02)
	for i, strat := range []TTMcStrategy{TTMcFlat, TTMcDTree, TTMcFlat} {
		opts := Options{Ranks: ranks, MaxIters: 6, Tol: -1, Seed: 7, ttmc: strat}
		wantSVD := "[gram gram gram]"
		if i == 2 {
			opts.svd = SVDLanczos
			wantSVD = "[lanczos lanczos lanczos]"
		}

		p1, err := NewPlan(x, opts)
		if err != nil {
			t.Fatal(err)
		}
		full, err := NewEngine(p1).Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}

		// Same run with sweep-boundary checkpointing every 3 sweeps.
		dir := t.TempDir()
		p2, err := NewPlan(x, opts)
		if err != nil {
			t.Fatal(err)
		}
		e2 := NewEngine(p2)
		e2.EnableCheckpoints(dir, 3)
		ckpted, err := e2.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		resultsBitwiseEqual(t, "checkpointing perturbed the run", full, ckpted)

		if got := fmt.Sprint(full.SVD); got != wantSVD {
			t.Fatalf("strat=%v svd=%v ran %s at ranks %v, want %s", strat, opts.svd, got, ranks, wantSVD)
		}

		// Resume from the mid-run (sweep 3) checkpoint on a fresh
		// plan — the crashed-and-restarted scenario — and from the
		// final one, whose trajectory had already stopped.
		for _, sweep := range []int{3, 6} {
			b, err := os.ReadFile(filepath.Join(dir, checkpoint.FileName(sweep)))
			if err != nil {
				t.Fatalf("strat=%v: sweep-%d checkpoint missing: %v", strat, sweep, err)
			}
			e3, err := ResumeEngine(mustPlan(t, x, opts), bytes.NewReader(b))
			if err != nil {
				t.Fatalf("strat=%v resume: %v", strat, err)
			}
			resumed, err := e3.Run(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			resultsBitwiseEqual(t, fmt.Sprintf("run resumed at sweep %d diverged", sweep), full, resumed)
			if got := fmt.Sprint(resumed.SVD); got != wantSVD {
				t.Errorf("strat=%v svd=%v: run resumed at sweep %d reports %s, want %s", strat, opts.svd, sweep, got, wantSVD)
			}
		}
	}
}

// TestResumeWarmBitwise carries the contract past the first Run for all
// three solvers: an engine resumed from SnapshotState must run the next
// Run (from the restored factors) and an Update bit for bit as the
// engine it was taken from. No solver reads anything a previous solve
// left behind, so the factors and the seed schedule's position are the
// whole state.
func TestResumeWarmBitwise(t *testing.T) {
	x := gen.Random(gen.Config{Dims: []int{40, 30, 20}, NNZ: 2000, Skew: 0.5, Seed: 3})
	for _, svd := range []SVDMethod{SVDRandomized, SVDLanczos, SVDGram} {
		opts := Options{Ranks: []int{4, 4, 4}, MaxIters: 4, Tol: -1, Seed: 7, svd: svd}
		ctx := context.Background()
		e1 := NewEngine(mustPlan(t, x, opts))
		if _, err := e1.Run(ctx); err != nil {
			t.Fatal(err)
		}
		e2, err := ResumeEngineState(mustPlan(t, x, opts), e1.SnapshotState())
		if err != nil {
			t.Fatal(err)
		}
		r2, err := e2.Run(ctx)
		if err != nil {
			t.Fatal(err)
		}
		resultsBitwiseEqual(t, fmt.Sprintf("svd=%v restored result", svd), e1.Result(), r2)

		w1, err := e1.Run(ctx)
		if err != nil {
			t.Fatal(err)
		}
		w2, err := e2.Run(ctx)
		if err != nil {
			t.Fatal(err)
		}
		resultsBitwiseEqual(t, fmt.Sprintf("svd=%v warm Run after resume", svd), w1, w2)

		u1, err := e1.Update(gen.Delta(x, 0.01, 0.01, 5))
		if err != nil {
			t.Fatal(err)
		}
		u2, err := e2.Update(gen.Delta(x, 0.01, 0.01, 5))
		if err != nil {
			t.Fatal(err)
		}
		resultsBitwiseEqual(t, fmt.Sprintf("svd=%v Update after resume", svd), u1, u2)
	}
}

// TestResumeAfterTolStop: a run that stopped by tolerance must, when
// resumed from its final checkpoint, re-derive the stop decision and
// return the restored result without running further sweeps.
func TestResumeAfterTolStop(t *testing.T) {
	x, ranks := presetTensor(t, "netflix", 0.02)
	opts := Options{Ranks: ranks, MaxIters: 50, Tol: 1e-4, Seed: 7}
	dir := t.TempDir()

	p1, err := NewPlan(x, opts)
	if err != nil {
		t.Fatal(err)
	}
	e1 := NewEngine(p1)
	e1.EnableCheckpoints(dir, 1)
	full, err := e1.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if full.Iters >= opts.MaxIters {
		t.Fatalf("test premise broken: run did not stop early (%d sweeps)", full.Iters)
	}

	st, path, err := checkpoint.LoadLatest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if st.Sweep != full.Iters {
		t.Fatalf("latest checkpoint %s at sweep %d, run stopped at %d", path, st.Sweep, full.Iters)
	}
	p2, err := NewPlan(x, opts)
	if err != nil {
		t.Fatal(err)
	}
	e2, err := ResumeEngineState(p2, st)
	if err != nil {
		t.Fatal(err)
	}
	resumed, err := e2.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	resultsBitwiseEqual(t, "resume after tol stop", full, resumed)
}

// TestSnapshotResumeRoundTrip covers the warm-engine persistence path:
// Snapshot after a finished Run, resume elsewhere, and both the
// restored result and the next warm solve are bitwise identical to the
// original engine's.
func TestSnapshotResumeRoundTrip(t *testing.T) {
	x, ranks := presetTensor(t, "netflix", 0.02)
	opts := Options{Ranks: ranks, MaxIters: 4, Tol: -1, Seed: 7}

	p1, err := NewPlan(x, opts)
	if err != nil {
		t.Fatal(err)
	}
	e1 := NewEngine(p1)
	r1, err := e1.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := e1.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}

	p2, err := NewPlan(x, opts)
	if err != nil {
		t.Fatal(err)
	}
	e2, err := ResumeEngine(p2, bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	r2, err := e2.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	resultsBitwiseEqual(t, "restored result", r1, r2)

	// The next (warm) solves must also march in lockstep.
	w1, err := e1.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	w2, err := e2.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	resultsBitwiseEqual(t, "warm re-solve after resume", w1, w2)
}

// TestResumeMismatch: checkpoints from a different tensor, seed, or
// rank configuration are rejected with checkpoint.ErrMismatch.
func TestResumeMismatch(t *testing.T) {
	x, ranks := presetTensor(t, "netflix", 0.02)
	opts := Options{Ranks: ranks, MaxIters: 2, Tol: -1, Seed: 7}
	p, err := NewPlan(x, opts)
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(p)
	if _, err := e.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	good := e.SnapshotState()

	resumeErr := func(mut func(*checkpoint.State)) error {
		st := e.SnapshotState()
		mut(st)
		_, err := ResumeEngineState(p, st)
		return err
	}
	cases := map[string]func(*checkpoint.State){
		"wrong seed":  func(s *checkpoint.State) { s.SeedBase++ },
		"wrong norm":  func(s *checkpoint.State) { s.NormX *= 1.5 },
		"wrong order": func(s *checkpoint.State) { s.Factors = s.Factors[:1] },
		"wrong rank":  func(s *checkpoint.State) { s.Factors[0] = dense.NewMatrix(s.Factors[0].Rows, 1) },
		"wrong mode":  func(s *checkpoint.State) { s.Factors[0] = dense.NewMatrix(3, s.Factors[0].Cols) },
	}
	for name, mut := range cases {
		if err := resumeErr(mut); !errors.Is(err, checkpoint.ErrMismatch) {
			t.Errorf("%s: got %v, want ErrMismatch", name, err)
		}
	}

	// And the matching state still resumes.
	if _, err := ResumeEngineState(p, good); err != nil {
		t.Fatalf("valid state rejected: %v", err)
	}
}
