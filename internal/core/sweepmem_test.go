package core

import (
	"context"
	"math"
	"testing"

	"hypertensor/internal/symbolic"
	"hypertensor/internal/ttm"
)

// A steady-state sweep allocates nothing of a factor's size: the
// solver's U lives in its workspace, the core is formed from that
// compact U into the engine's own buffer, and Gram's re-whitening
// rotates U in place. What a sweep still allocates (a Result per solve,
// the fit history's growth) stays below the smallest factor of any mode
// on all four presets — on the netflix preset the 8 x 8 third factor,
// 512 bytes, where a solve's U or a core alone would cross it. The
// least of three runs is taken, as for the allocation count.
func TestSweepAllocatesNoFactorSizedMemory(t *testing.T) {
	split := false
	for _, preset := range []string{"netflix", "nell", "delicious", "flickr"} {
		x, ranks := presetTensor(t, preset, 0.2)
		opts := Options{Ranks: ranks, MaxIters: 3, Tol: -1, Seed: 32, Threads: 1, MeasureAllocs: true}
		bytes, smallest := int64(math.MaxInt64), int64(math.MaxInt64)
		for range 3 {
			plan, err := NewPlan(x, opts)
			if err != nil {
				t.Fatal(err)
			}
			eng := NewEngine(plan)
			res, err := eng.Run(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			bytes = min(bytes, res.AllocBytesPerSweep)
			for n, r := range ranks {
				smallest = min(smallest, int64(len(eng.kern.Rows(n))*r*8))
			}
			// The core is the one ttm.Core forms of the last mode's Y and
			// U_N, G_(N) = U_cᵀ·Y unfolded: bit for bit where the mode is
			// unsplit, and where it is split (nell's) within 1e-13 of the
			// largest entry, from its Y written out C wide.
			last, y, u := x.Order()-1, &eng.ys[x.Order()-1], res.Factors[x.Order()-1]
			rows := eng.kern.Rows(last)
			if kr := eng.kern.SplitRows(last); kr != nil {
				split = true
				want := ttm.CoreFromMatricized(ttm.CoreMatricized(kr.Materialize(y), rows, u, 1), ranks, last)
				var scale, diff float64
				for i, v := range want.Data {
					scale, diff = max(scale, math.Abs(v)), max(diff, math.Abs(res.Core.Data[i]-v))
				}
				if diff > 1e-13*scale {
					t.Fatalf("%s: the core is off ttm.Core of the written-out Y by %g of its largest entry", preset, diff/scale)
				}
				continue
			}
			want := ttm.Core(y, &symbolic.Mode{N: last, Rows: rows}, u, ranks, 1)
			for i, v := range want.Data {
				if math.Float64bits(res.Core.Data[i]) != math.Float64bits(v) {
					t.Fatalf("%s: core element %d is %v, ttm.Core gives %v", preset, i, res.Core.Data[i], v)
				}
			}
		}
		if bytes <= 0 || bytes >= smallest {
			t.Errorf("%s: %d bytes allocated per sweep; the smallest factor is %d", preset, bytes, smallest)
		}
	}
	if !split {
		t.Error("no preset's last mode is split: the compact core path went unchecked")
	}
}
