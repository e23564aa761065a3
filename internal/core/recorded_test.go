package core

import (
	"bytes"
	"context"
	"fmt"
	"slices"
	"testing"

	"hypertensor/internal/gen"
	"hypertensor/internal/ttm"
)

// The machine-independent counts of a solve on the four presets at
// scale 0.2 (3 sweeps, no tolerance stop, default options unless the
// column says otherwise). They are functions of the tensor, the ranks
// and the seed alone, so every one is held with ==; when a change
// legitimately moves one, the failure prints got and recorded and the
// literal is edited in that change. The Lanczos, randomized and
// Lanczos-update columns were recorded at commit c9e0e6f, when Lanczos
// was the default, and are now taken with the solver pinned to it: that they
// still hold says the Lanczos path is what it was. The snapshot column
// is checkpoint format version 2's. The auto columns
// are the default's, recorded when SVDAuto arrived for the order-3
// presets and when the rule took order 4 at ranks 5 from Lanczos for the
// order-4 ones: every preset resolves to Gram in every mode (two passes
// per solve, none unconverged). Their TRSVD madds on the order-3 presets
// were re-recorded when mode 0 took the split Gram: a Gram solve counts
// the product as it ran, the multi rows' SYRK, the singleton sums and
// Pᵀ·S, plus Y·W; and again when the singleton rows left Y: mode 0's
// Y·W reads them c = C/R_g wide. The order-4 presets' default TTMc and
// TRSVD madds were re-recorded when the tree took the census, which
// splits three of their modes, and so were their default update columns;
// an order-3 tree keeps every row wide (treeSplits).
// TTMc madds are what the kernel executed: on order 3 the flat kernel's
// accumulator update per nonzero plus a row update per run (the nominal
// nnz x row size of both presets is 2.2-2.5x the figure), on order 4 the
// tree's. A default run writes a split mode's singleton rows c wide, one
// multiply per entry, so its figure is below the Lanczos column's, which
// takes no census; PredictSweepMadds predicts the default's. Stream
// bytes are the flat kernel's list-order index copies: on a sorted
// order-3 tensor exactly two modes copy two streams of 4 B a
// nonzero (16 B x nnz: the storage-order mode aliases the tensor and
// counts 0, so a change that copies it fails ==). On order 4 they are the
// tree's root-child streams, the two modes a child drops in its group
// order: the first child's order is the storage order and aliases the
// tensor, so exactly the second child's two streams count, 8 B x nnz.
// Allocations per sweep are held with == too, at one, two and three
// threads: one literal per preset, which both solvers make (the Results
// and the fit history; every kernel's state is kept by the engine, the
// operator, the workspace or the pool, which no collection empties).
// The runtime may add one of its own (a sudog after a collection has
// emptied its cache, an OS thread), never take one away, so a count
// above the literal is measured again and the least of three is held.
// It was a bound of 7 on the flat kernel and 9 on the tree, taken at
// one thread only, while seven sync.Pools under the sweep were remade
// after a collection (T2 read 10-13); 25/25 and 30/34 while every solve
// returned a fresh U and the core was gathered and unfolded into fresh
// matrices.
func TestRecordedCounts(t *testing.T) {
	type solverCounts struct {
		ttmcMadds                       int64 // per sweep
		trsvdMadds, passes, unconverged int64 // whole run
		updateSweeps                    int
		updateMadds                     int64
	}
	for _, want := range []struct {
		preset          string
		indexBytes      int64
		streamBytes     int64 // flat: 2 non-storage-order modes x 2 streams x 4 B x nnz; tree: the second root child's 2 streams x 4 B x nnz
		randomizedMadds int64 // TRSVD, whole run
		snapshotBytes   int
		allocs          int64 // per sweep, either solver, at one to three threads
		auto            string
		lanczos, dflt   solverCounts
	}{
		{"netflix", 460632, 614176, 51060480, 166069, 4, "[gram gram gram]",
			solverCounts{4469116, 22066560, 344, 0, 2, 8459046}, solverCounts{4462174, 23079585, 18, 0, 2, 8459046}},
		{"nell", 374400, 499200, 122925600, 1260357, 4, "[gram gram gram]",
			solverCounts{3716400, 49706800, 412, 0, 2, 6930906}, solverCounts{3555700, 40167405, 18, 0, 2, 6930906}},
		{"delicious", 896016, 448008, 171405000, 3250249, 5, "[gram gram gram gram]",
			solverCounts{5960185, 58913000, 356, 0, 2, 12108530}, solverCounts{5714785, 83802900, 24, 0, 2, 11556930}},
		{"flickr", 716800, 358400, 111458750, 4821409, 5, "[gram gram gram gram]",
			solverCounts{4480400, 43542750, 372, 0, 2, 9110880}, solverCounts{4328000, 63684900, 24, 0, 2, 8758080}},
	} {
		x, ranks := presetTensor(t, want.preset, 0.2)
		opts := Options{Ranks: ranks, MaxIters: 3, Tol: -1, Seed: 32}
		for _, sv := range []struct {
			svd  SVDMethod
			want solverCounts
		}{{SVDLanczos, want.lanczos}, {SVDAuto, want.dflt}} {
			opts.svd = sv.svd
			// The fit trajectory must not depend on the thread count, bit
			// for bit, and up to three threads neither must the
			// allocation count.
			var first *Result
			for _, threads := range []int{1, 2, 3, 4, 8} {
				o := opts
				o.Threads = threads
				o.MeasureAllocs = threads <= 3
				res := mustRun(t, x, o)
				if o.MeasureAllocs {
					allocs := res.AllocsPerSweep
					for range 2 {
						if allocs > want.allocs {
							allocs = min(allocs, mustRun(t, x, o).AllocsPerSweep)
						}
					}
					if allocs != want.allocs {
						t.Errorf("%s svd=%v threads=%d: %d allocations per sweep, recorded %d", want.preset, sv.svd, threads, allocs, want.allocs)
					}
				}
				if first == nil {
					first = res
					continue
				}
				for i, fit := range first.FitHistory {
					if res.FitHistory[i] != fit {
						t.Errorf("%s svd=%v sweep %d: fit %.17g at %d threads, %.17g at one", want.preset, sv.svd, i+1, res.FitHistory[i], threads, fit)
					}
				}
			}
			ttmcMadds := first.TTMcFlops / int64(first.Iters)
			if nominal := ttm.SweepFlops(x.NNZ(), first.Factors); sv.want.ttmcMadds > nominal {
				t.Errorf("%s: recorded %d TTMc madds per sweep, above the nominal %d", want.preset, sv.want.ttmcMadds, nominal)
			}
			if first.IndexBytes != want.indexBytes {
				t.Errorf("%s svd=%v: %d index bytes, recorded %d", want.preset, sv.svd, first.IndexBytes, want.indexBytes)
			}
			if first.StreamBytes != want.streamBytes {
				t.Errorf("%s svd=%v: %d stream bytes, recorded %d", want.preset, sv.svd, first.StreamBytes, want.streamBytes)
			}
			wantSVD := want.auto
			if sv.svd != SVDAuto {
				wantSVD = fmt.Sprint(slices.Repeat([]SVDMethod{sv.svd}, x.Order()))
			}
			if ran := fmt.Sprint(first.SVD); ran != wantSVD {
				t.Errorf("%s svd=%v: ran %s, want %s", want.preset, sv.svd, ran, wantSVD)
			}

			// The update path on the tree, to a converged tolerance, so the
			// sweep count is the re-convergence's and not a budget's.
			plan, err := NewPlan(x, Options{Ranks: ranks, MaxIters: 30, Tol: 1e-9, Threads: 1, ttmc: TTMcDTree, Seed: 32, svd: sv.svd})
			if err != nil {
				t.Fatal(err)
			}
			eng := NewEngine(plan)
			if _, err := eng.Run(context.Background()); err != nil {
				t.Fatal(err)
			}
			res, err := eng.Update(gen.Delta(x, 0.003, 0.003, 78))
			if err != nil {
				t.Fatal(err)
			}
			got := solverCounts{ttmcMadds, first.TRSVDMadds, first.TRSVDPasses, first.TRSVDUnconverged, res.UpdateSweeps, res.UpdateMadds}
			if got != sv.want {
				t.Errorf("%s svd=%v: {TTMc madds per sweep, TRSVD madds, passes, unconverged, update sweeps, update madds} %v, recorded %v", want.preset, sv.svd, got, sv.want)
			}
		}

		// What ran is what the plan's strategy was predicted to cost.
		flat, tree := PredictSweepMadds(x, ranks, 1)
		predicted := tree
		if x.Order() < 4 {
			predicted = flat
		}
		if predicted != want.dflt.ttmcMadds {
			t.Errorf("%s: PredictSweepMadds gives flat=%d dtree=%d, recorded %d madds per sweep", want.preset, flat, tree, want.dflt.ttmcMadds)
		}

		opts.svd = SVDRandomized
		if got := mustRun(t, x, opts).TRSVDMadds; got != want.randomizedMadds {
			t.Errorf("%s: %d randomized-solver madds, recorded %d", want.preset, got, want.randomizedMadds)
		}

		opts.svd = SVDAuto
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
	}
}
