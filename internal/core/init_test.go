package core

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"hypertensor/internal/dense"
	"hypertensor/internal/gen"
	"hypertensor/internal/tensor"
)

// The initial factors are where every committed fit starts. The
// in-place parallel QR must leave them where the column-copying one put
// them: entrywise against that QR (still dense.QR) on the same random
// stream, and against digests sum U[i,j]*cos(0.7i+1.3j+n) recorded from
// the commit before the QR changed, so that the stream and the QR cannot
// drift together unnoticed.
func TestInitialFactorsUnchanged(t *testing.T) {
	dims, ranks := []int{3000, 40, 7}, []int{10, 6, 7}
	recorded := map[int64][]float64{
		1: {0.83656363212048757, -0.56433011049551685, -0.59447327759192248},
		7: {1.0694410258668472, -0.082451738049286905, 1.1281312512013857},
	}
	for seed, digests := range recorded {
		got := InitialFactors(tensor.NewCOO(dims, 0), Options{Seed: seed, Threads: 2}, ranks)
		rng := rand.New(rand.NewSource(seed))
		for n, u := range got {
			want, _ := dense.QR(dense.RandomNormal(dims[n], ranks[n], rng))
			var digest float64
			for i := 0; i < u.Rows; i++ {
				for j := 0; j < u.Cols; j++ {
					if d := math.Abs(u.At(i, j) - want.At(i, j)); !(d <= 1e-12) {
						t.Fatalf("seed %d mode %d: entry (%d,%d) is %.3g off the reference QR", seed, n, i, j, d)
					}
					digest += u.At(i, j) * math.Cos(0.7*float64(i)+1.3*float64(j)+float64(n))
				}
			}
			if d := math.Abs(digest - digests[n]); !(d <= 1e-12) {
				t.Fatalf("seed %d mode %d: digest %.17g is %.3g off the recorded %.17g", seed, n, digest, d, digests[n])
			}
		}
	}
}

// Fit histories recorded from the commit before the reader and the QR
// changed; nothing in a sweep moved, so they hold to rounding.
func TestFitHistoryUnchanged(t *testing.T) {
	for _, tc := range []struct {
		preset string
		scale  float64
		want   []float64
	}{
		{"netflix", 0.3, []float64{0.9986100746260258, 0.99878387409463643, 0.99878442970919568}},
		{"flickr", 0.05, []float64{0.97957426693233918, 0.98125112009565074, 0.98125837806399407}},
	} {
		cfg, err := gen.Preset(tc.preset, tc.scale)
		if err != nil {
			t.Fatal(err)
		}
		x := gen.Random(cfg)
		res, err := Decompose(x, Options{Ranks: gen.PaperRanks(x.Order()), MaxIters: 3, Tol: -1, Seed: 1, Threads: 2})
		if err != nil {
			t.Fatal(err)
		}
		for i, want := range tc.want {
			if d := math.Abs(res.FitHistory[i] - want); !(d <= 1e-9) {
				t.Fatalf("%s sweep %d: fit %.17g is %.3g off the recorded %.17g", tc.preset, i+1, res.FitHistory[i], d, want)
			}
		}
	}
}

// Init is one-time work: the first Run of an engine reports it, and
// later runs do not.
func TestTimingsInitReportedOnce(t *testing.T) {
	x := gen.Random(gen.Config{Dims: []int{60, 50, 40}, NNZ: 2000, Seed: 1})
	plan, err := NewPlan(x, Options{Ranks: []int{4, 4, 4}, MaxIters: 1, Tol: -1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(plan)
	first, err := eng.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if first.Timings.Init <= 0 {
		t.Fatalf("first run reports Init = %v", first.Timings.Init)
	}
	second, err := eng.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if second.Timings.Init != 0 {
		t.Fatalf("second run reports Init = %v again", second.Timings.Init)
	}
}
