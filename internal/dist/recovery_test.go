package dist

import (
	"context"
	"errors"
	"sync"
	"testing"

	"hypertensor/internal/checkpoint"
	"hypertensor/internal/core"
	"hypertensor/internal/mpi"
)

// sameResult asserts two distributed results are bitwise identical in
// everything the decomposition contract covers: fit trajectory,
// factors, and core.
func sameResult(t *testing.T, label string, got, want *Result) {
	t.Helper()
	if got.Iters != want.Iters || len(got.FitHistory) != len(want.FitHistory) {
		t.Fatalf("%s: %d sweeps (history %d) vs %d (history %d)",
			label, got.Iters, len(got.FitHistory), want.Iters, len(want.FitHistory))
	}
	for i := range want.FitHistory {
		if got.FitHistory[i] != want.FitHistory[i] {
			t.Fatalf("%s sweep %d: fit %.17g != %.17g", label, i, got.FitHistory[i], want.FitHistory[i])
		}
	}
	for n := range want.Factors {
		for i := range want.Factors[n].Data {
			if got.Factors[n].Data[i] != want.Factors[n].Data[i] {
				t.Fatalf("%s: factor %d differs at %d", label, n, i)
			}
		}
	}
	for i := range want.Core.Data {
		if got.Core.Data[i] != want.Core.Data[i] {
			t.Fatalf("%s: core differs at %d", label, i)
		}
	}
}

// TestDistKillAndRecoverBitwise is the recovery contract: kill a rank
// at a sweep boundary, restart the whole world from the last
// coordinated checkpoint, and the completed run is bitwise identical to
// one that never faulted — through two successive crashes, under either
// solver the default resolves to (Gram at these ranks).
func TestDistKillAndRecoverBitwise(t *testing.T) {
	x := testTensor3(t)
	ranks := []int{3, 3, 3}
	for _, pc := range []struct {
		p   int
		g   Grain
		m   Method
		svd core.SVDMethod
	}{
		{2, Fine, MethodHypergraph, core.SVDAuto},
		{4, Fine, MethodHypergraph, core.SVDAuto},
		{4, Coarse, MethodBlock, core.SVDAuto},
		{3, Fine, MethodHypergraph, core.SVDLanczos},
	} {
		part, err := MakePartition(x, pc.p, pc.g, pc.m, 11)
		if err != nil {
			t.Fatal(err)
		}
		base := Config{Ranks: ranks, MaxIters: 6, Tol: -1, Seed: 3, SVD: pc.svd}
		control, err := Decompose(x, part, base)
		if err != nil {
			t.Fatalf("%s control: %v", part.Name(), err)
		}

		dir := t.TempDir()
		ckpt := base
		ckpt.CheckpointDir = dir
		ckpt.CheckpointEvery = 2

		// Crash 1: rank 1 dies entering sweep 3; the sweep-2 checkpoint
		// is already durable.
		run := ckpt
		run.Fault = mpi.FaultConfig{KillRank: 1, KillAtSweep: 3}.SweepHook()
		if _, err := Decompose(x, part, run); !errors.Is(err, mpi.ErrPeerDied) {
			t.Fatalf("%s: injected kill surfaced as %v, want ErrPeerDied", part.Name(), err)
		}

		// Crash 2: the restarted world resumes from sweep 2, checkpoints
		// at sweep 4, and dies entering sweep 5.
		run = ckpt
		run.Fault = mpi.FaultConfig{KillRank: 1, KillAtSweep: 5}.SweepHook()
		if _, err := Decompose(x, part, run); !errors.Is(err, mpi.ErrPeerDied) {
			t.Fatalf("%s: second injected kill surfaced as %v", part.Name(), err)
		}

		// Final restart runs fault-free from sweep 4 to completion.
		res, err := Decompose(x, part, ckpt)
		if err != nil {
			t.Fatalf("%s recovery: %v", part.Name(), err)
		}
		sameResult(t, part.Name(), res, control)
	}
}

// TestDistTCPKillAndRecover runs the same kill-and-recover scenario
// over a real TCP mesh: the faulted world tears down every process with
// a typed error, and a freshly connected world resumes from the shared
// checkpoint directory to the bitwise fault-free result.
func TestDistTCPKillAndRecover(t *testing.T) {
	x := testTensor3(t)
	part, err := MakePartition(x, 2, Fine, MethodHypergraph, 11)
	if err != nil {
		t.Fatal(err)
	}
	base := Config{Ranks: []int{3, 3, 3}, MaxIters: 6, Tol: -1, Seed: 3}
	control, err := Decompose(x, part, base)
	if err != nil {
		t.Fatal(err)
	}

	ckpt := base
	ckpt.CheckpointDir = t.TempDir()
	ckpt.CheckpointEvery = 2

	runTCP := func(cfg Config) ([]*Result, []error) {
		worlds := tcpWorlds(t, 2)
		results := make([]*Result, 2)
		errs := make([]error, 2)
		var wg sync.WaitGroup
		wg.Add(2)
		for r := 0; r < 2; r++ {
			go func(r int) {
				defer wg.Done()
				results[r], errs[r] = DecomposeWorld(context.Background(), worlds[r], x, part, cfg)
			}(r)
		}
		wg.Wait()
		return results, errs
	}

	faulted := ckpt
	faulted.Fault = mpi.FaultConfig{KillRank: 1, KillAtSweep: 3}.SweepHook()
	_, errs := runTCP(faulted)
	for r, err := range errs {
		if err == nil {
			t.Fatalf("rank %d survived the injected kill", r)
		}
	}
	if !errors.Is(errs[1], mpi.ErrPeerDied) {
		t.Fatalf("killed rank error: %v", errs[1])
	}

	results, errs := runTCP(ckpt)
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d recovery: %v", r, err)
		}
	}
	for r, res := range results {
		sameResult(t, part.Name(), res, control)
		_ = r
	}
}

// TestDistResumeConvergedRun: restarting a run that already converged
// (tolerance stop) returns the checkpointed result as-is — no extra
// sweeps the uninterrupted run never took.
func TestDistResumeConvergedRun(t *testing.T) {
	x := testTensor3(t)
	part, err := MakePartition(x, 2, Fine, MethodHypergraph, 11)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Ranks: []int{3, 3, 3}, MaxIters: 30, Tol: 1e-4, Seed: 3,
		CheckpointDir: t.TempDir(), CheckpointEvery: 1}
	first, err := Decompose(x, part, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if first.Iters >= 30 {
		t.Fatalf("run did not converge in %d sweeps; pick a looser tolerance", first.Iters)
	}
	again, err := Decompose(x, part, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, "converged-resume", again, first)
}

// TestDistResumeMismatchRejected: a checkpoint from a different
// configuration or tensor must be refused with a typed mismatch, never
// silently blended into the wrong run.
func TestDistResumeMismatchRejected(t *testing.T) {
	x := testTensor3(t)
	part, err := MakePartition(x, 2, Fine, MethodHypergraph, 11)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	cfg := Config{Ranks: []int{3, 3, 3}, MaxIters: 2, Tol: -1, Seed: 3,
		CheckpointDir: dir, CheckpointEvery: 1}
	if _, err := Decompose(x, part, cfg); err != nil {
		t.Fatal(err)
	}

	wrongSeed := cfg
	wrongSeed.Seed = 4
	if _, err := Decompose(x, part, wrongSeed); !errors.Is(err, checkpoint.ErrMismatch) {
		t.Fatalf("wrong seed accepted: %v", err)
	}

	wrongRanks := cfg
	wrongRanks.Ranks = []int{4, 3, 3}
	if _, err := Decompose(x, part, wrongRanks); !errors.Is(err, checkpoint.ErrMismatch) {
		t.Fatalf("wrong ranks accepted: %v", err)
	}

	other := testTensor4(t)
	otherPart, err := MakePartition(other, 2, Fine, MethodHypergraph, 11)
	if err != nil {
		t.Fatal(err)
	}
	wrongTensor := cfg
	wrongTensor.Ranks = []int{2, 2, 3, 2}
	if _, err := Decompose(other, otherPart, wrongTensor); !errors.Is(err, checkpoint.ErrMismatch) {
		t.Fatalf("wrong tensor accepted: %v", err)
	}
}
