package hypertensor_test

import (
	"context"
	"fmt"

	"hypertensor"
)

// ExampleEngine_Update builds a resident decomposition handle on a tiny
// synthetic tensor, converges once, then streams a coordinate delta
// through the incremental path and re-converges warm — the serving
// workflow for tensors that evolve (new ratings, links, or tag events
// arriving continuously).
func ExampleEngine_Update() {
	// A small 3-mode tensor with a planted diagonal-ish structure.
	x := hypertensor.NewSparseTensor([]int{30, 20, 10}, 0)
	for i := 0; i < 30; i++ {
		for j := 0; j < 4; j++ {
			x.Append([]int{i, (i + j) % 20, (i*j + 1) % 10}, float64(1+j))
		}
	}
	x.SortDedup()

	opts := hypertensor.Options{
		Ranks:    []int{4, 4, 4},
		MaxIters: 50,
		Tol:      1e-9,
		Seed:     1,
	}
	// Plan once (symbolic analysis), then hold a resident engine.
	plan, err := hypertensor.NewPlan(x, opts)
	if err != nil {
		panic(err)
	}
	eng := hypertensor.NewEngine(plan)
	dec, err := eng.Run(context.Background())
	if err != nil {
		panic(err)
	}
	fmt.Printf("initial solve: core %v after %d sweeps\n", dec.Core.Dims, dec.Iters)

	// New events arrive: one re-weighted entry and two fresh ones.
	delta := hypertensor.NewSparseTensor([]int{30, 20, 10}, 3)
	delta.Append([]int{0, 0, 1}, 0.5)  // existing coordinate: values sum
	delta.Append([]int{29, 19, 9}, 2)  // new coordinate
	delta.Append([]int{7, 13, 3}, 1.5) // new coordinate
	dec, err = eng.Update(delta)
	if err != nil {
		panic(err)
	}
	fmt.Printf("update: %d nonzeros ingested, re-converged in %d sweeps\n",
		dec.DeltaNNZ, dec.UpdateSweeps)
	// Result.UpdateMadds and Result.FullSweepMadds report the TTMc cost
	// of the re-convergence against the recompute-everything flat sweep
	// it replaces; under the dimension tree (order 4 and up), on
	// realistically sized tensors, the former is several-fold smaller
	// per sweep.
	fmt.Printf("update accounting present: %v\n",
		dec.UpdateMadds > 0 && dec.FullSweepMadds > 0)
	// Output:
	// initial solve: core [4 4 4] after 30 sweeps
	// update: 3 nonzeros ingested, re-converged in 2 sweeps
	// update accounting present: true
}
