package core

import (
	"context"
	"math"
	"testing"

	"hypertensor/internal/ttm"
)

// A steady-state sweep allocates nothing of a factor's size: the
// solver's U lives in its workspace, the core is formed from that
// compact U into the engine's own buffers, and Gram's re-whitening
// rotates U in place. What a sweep still allocates (a Result per solve,
// the fit history's growth) stays below the smallest factor of any mode
// on all four presets — on the netflix preset the 8 x 8 third factor,
// 512 bytes, where a solve's U or a core alone would cross it. The
// least of three runs is taken, as for the allocation count, and the
// race detector's random sync.Pool drops skip the test as they skip
// that count.
func TestSweepAllocatesNoFactorSizedMemory(t *testing.T) {
	if raceBuild {
		t.Skip("the race detector makes sync.Pool drop puts at random")
	}
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
			// The core the engine unfolds in place is the one
			// ttm.CoreFromMatricized makes of the same G_(N).
			last := x.Order() - 1
			want := ttm.CoreFromMatricized(eng.gm, ranks, last)
			for i, v := range want.Data {
				if math.Float64bits(res.Core.Data[i]) != math.Float64bits(v) {
					t.Fatalf("%s: core element %d is %v, the unfolded G_(N) holds %v", preset, i, res.Core.Data[i], v)
				}
			}
		}
		if bytes <= 0 || bytes >= smallest {
			t.Errorf("%s: %d bytes allocated per sweep; the smallest factor is %d", preset, bytes, smallest)
		}
	}
}
