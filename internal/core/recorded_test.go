package core

import (
	"bytes"
	"context"
	"math"
	"testing"

	"hypertensor/internal/gen"
)

// The machine-independent counts of a solve on the four presets at
// scale 0.2 (3 sweeps, no tolerance stop, default options unless the
// column says otherwise), recorded at commit c9e0e6f. They are functions
// of the tensor, the ranks and the seed alone, so every one is held with
// ==; when a change legitimately moves one, the failure prints got and
// recorded and the literal is edited in that change. Allocations per
// sweep depend on the runtime as well, so they are the least of three
// runs against a bound two above what was recorded (43/44/30/34): one
// make per mode per sweep crosses it.
func TestRecordedCounts(t *testing.T) {
	for _, want := range []struct {
		preset                        string
		ttmcMadds                     int64 // per sweep
		indexBytes                    int64
		lanczosMadds, randomizedMadds int64 // TRSVD, whole run
		snapshotBytes                 int
		updateSweeps                  int
		updateMadds                   int64
		allocsBound                   int64 // per sweep at one thread
	}{
		{"netflix", 9980360, 460632, 20831360, 51060480, 166084, 2, 13711512, 45},
		{"nell", 9360000, 374400, 49085600, 116251200, 1260372, 2, 10391260, 46},
		{"delicious", 6922300, 896016, 59142500, 177053500, 3250268, 2, 14029400, 32},
		{"flickr", 5290500, 716800, 44326250, 112560500, 4821428, 2, 10728400, 36},
	} {
		x, ranks := presetTensor(t, want.preset, 0.2)
		opts := Options{Ranks: ranks, MaxIters: 3, Tol: -1, Seed: 32}

		// The fit trajectory must not depend on the thread count, bit for
		// bit. The one-thread runs (parallel regions inline, so no worker
		// pool in the count) also count allocations.
		var first *Result
		allocs := int64(math.MaxInt64)
		for _, threads := range []int{1, 1, 1, 2, 4, 8} {
			o := opts
			o.Threads = threads
			o.MeasureAllocs = threads == 1
			res := mustRun(t, x, o)
			if o.MeasureAllocs {
				allocs = min(allocs, res.AllocsPerSweep)
			}
			if first == nil {
				first = res
				continue
			}
			for i, fit := range first.FitHistory {
				if res.FitHistory[i] != fit {
					t.Errorf("%s sweep %d: fit %.17g at %d threads, %.17g at one", want.preset, i+1, res.FitHistory[i], threads, fit)
				}
			}
		}
		if got := first.TTMcFlops / int64(first.Iters); got != want.ttmcMadds {
			t.Errorf("%s: %d TTMc madds per sweep, recorded %d", want.preset, got, want.ttmcMadds)
		}
		if first.IndexBytes != want.indexBytes {
			t.Errorf("%s: %d index bytes, recorded %d", want.preset, first.IndexBytes, want.indexBytes)
		}
		if first.TRSVDMadds != want.lanczosMadds {
			t.Errorf("%s: %d Lanczos madds, recorded %d", want.preset, first.TRSVDMadds, want.lanczosMadds)
		}
		if !raceBuild && (allocs <= 0 || allocs > want.allocsBound) {
			t.Errorf("%s: %d allocations per sweep, bound %d", want.preset, allocs, want.allocsBound)
		}

		o := opts
		o.SVD = SVDRandomized
		if got := mustRun(t, x, o).TRSVDMadds; got != want.randomizedMadds {
			t.Errorf("%s: %d randomized-solver madds, recorded %d", want.preset, got, want.randomizedMadds)
		}

		plan, err := NewPlan(x, opts)
		if err != nil {
			t.Fatal(err)
		}
		eng := NewEngine(plan)
		if _, err := eng.Run(context.Background()); err != nil {
			t.Fatal(err)
		}
		var snap bytes.Buffer
		if err := eng.Snapshot(&snap); err != nil {
			t.Fatal(err)
		}
		if snap.Len() != want.snapshotBytes {
			t.Errorf("%s: snapshot of %d bytes, recorded %d", want.preset, snap.Len(), want.snapshotBytes)
		}

		// The update path on the tree, to a converged tolerance, so the
		// sweep count is the warm start's and not a budget's.
		plan, err = NewPlan(x, Options{Ranks: ranks, MaxIters: 30, Tol: 1e-9, Threads: 1, TTMc: TTMcDTree, Seed: 32})
		if err != nil {
			t.Fatal(err)
		}
		eng = NewEngine(plan)
		if _, err := eng.Run(context.Background()); err != nil {
			t.Fatal(err)
		}
		res, err := eng.Update(gen.Delta(x, 0.003, 0.003, 78))
		if err != nil {
			t.Fatal(err)
		}
		if res.UpdateSweeps != want.updateSweeps || res.UpdateMadds != want.updateMadds {
			t.Errorf("%s update: %d sweeps and %d madds, recorded %d and %d", want.preset, res.UpdateSweeps, res.UpdateMadds, want.updateSweeps, want.updateMadds)
		}
	}
}
