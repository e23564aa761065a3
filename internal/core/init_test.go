package core

import (
	"context"
	"fmt"
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
		got := InitialFactors(dims, ranks, seed, 2)
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

// A cold sweep computes mode 0's product from U_1…U_{N−1} and scatters
// mode 0's solve over U_0 before anything reads U_0, which is why
// NewEngine builds no U_0. So a NaN U_0 must leave every bit of a cold
// run where a random one puts it; and the engine's other initial factors
// must be InitialFactors' own, bit for bit, so that skipping U_0 left the
// random stream where it was.
func TestColdSweepNeverReadsFirstFactor(t *testing.T) {
	order3 := gen.Random(gen.Config{Dims: []int{60, 50, 40}, NNZ: 900, Skew: 0.5, Seed: 5})
	order4 := gen.Random(gen.Config{Dims: []int{30, 25, 20, 15}, NNZ: 1500, Skew: 0.5, Seed: 6})
	for _, tc := range []struct {
		name string
		x    *tensor.COO
		opts Options
	}{
		{"order 3 flat", order3, Options{Ranks: []int{4, 4, 4}, ttmc: TTMcFlat}},
		{"order 4 tree", order4, Options{Ranks: []int{3, 3, 3, 3}, ttmc: TTMcDTree}},
		{"order 4 tree lanczos", order4, Options{Ranks: []int{3, 3, 3, 3}, ttmc: TTMcDTree, svd: SVDLanczos}},
	} {
		for _, threads := range []int{1, 2} {
			opts := tc.opts
			opts.MaxIters, opts.Tol, opts.Seed, opts.Threads = 3, -1, 3, threads
			opts.Initial = InitialFactors(tc.x.Dims, opts.Ranks, opts.Seed, threads)
			want, err := Decompose(tc.x, opts)
			if err != nil {
				t.Fatal(err)
			}
			nan := dense.NewMatrix(tc.x.Dims[0], opts.Ranks[0])
			for i := range nan.Data {
				nan.Data[i] = math.NaN()
			}
			opts.Initial = append([]*dense.Matrix{nan}, opts.Initial[1:]...)
			got, err := Decompose(tc.x, opts)
			if err != nil {
				t.Fatal(err)
			}
			resultsBitwiseEqual(t, fmt.Sprintf("%s threads=%d: a NaN U_0", tc.name, threads), want, got)
		}
	}

	for _, tc := range []struct {
		name string
		x    *tensor.COO
		opts Options
	}{
		{"order 3", order3, Options{Ranks: []int{4, 4, 4}}},
		{"order 4", order4, Options{Ranks: []int{3, 3, 3, 3}}},
		{"eps probe ranks", order3, Options{Eps: 0.1}},
	} {
		opts := tc.opts
		opts.MaxIters, opts.Tol, opts.Seed, opts.Threads = 1, -1, 3, 2
		want := InitialFactors(tc.x.Dims, startRanks(tc.x, opts), opts.Seed, opts.Threads)
		for n, u := range NewEngine(mustPlan(t, tc.x, opts)).Factors() {
			if u.Rows != want[n].Rows || u.Cols != want[n].Cols {
				t.Fatalf("%s: mode %d is %dx%d, InitialFactors gives %dx%d", tc.name, n, u.Rows, u.Cols, want[n].Rows, want[n].Cols)
			}
			if n > 0 {
				bitsEqual(t, fmt.Sprintf("%s: mode %d", tc.name, n), u.Data, want[n].Data)
				continue
			}
			for i, v := range u.Data {
				if math.Float64bits(v) != 0 {
					t.Fatalf("%s: U_0 element %d is %v before the first sweep, want +0", tc.name, i, v)
				}
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
