package core

import (
	"context"
	"fmt"
	"math"
	"testing"

	"hypertensor/internal/dense"
	"hypertensor/internal/gen"
	"hypertensor/internal/tensor"
	"hypertensor/internal/trsvd"
)

// The initial factors are where every committed fit starts. Mode n's
// start must span the columns of its fill GaussHash(seed+n, i, j):
// U·Uᵀ equals Q·Qᵀ for dense.QR's Q of the same fill, entrywise. Digests
// sum U[i,j]*cos(0.7i+1.3j+n), recorded when the start became the
// counter-based fill, pin the basis within that span, so that the fill
// and the whitening cannot drift together unnoticed.
func TestInitialFactorsUnchanged(t *testing.T) {
	dims, ranks := []int{3000, 40, 7}, []int{10, 6, 7}
	recorded := map[int64][]float64{
		1: {2.9642652867536228, -0.85343671885249295, -1.6858992411339828},
		7: {2.5029471372454828, -0.84365214816653522, 0.56226546491337837},
	}
	for seed, digests := range recorded {
		got := InitialFactors(dims, ranks, seed, 2)
		for n, u := range got {
			fill := dense.NewMatrix(dims[n], ranks[n])
			for i := 0; i < fill.Rows; i++ {
				for j := 0; j < fill.Cols; j++ {
					fill.Set(i, j, trsvd.GaussHash(seed+int64(n), int64(i), int64(j)))
				}
			}
			q, _ := dense.QR(fill)
			for i := 0; i < u.Rows; i++ {
				for l := 0; l <= i; l++ {
					if d := math.Abs(dense.Dot(u.Row(i), u.Row(l)) - dense.Dot(q.Row(i), q.Row(l))); !(d <= 1e-12) {
						t.Fatalf("seed %d mode %d: projector entry (%d,%d) is %.3g off the reference QR's", seed, n, i, l, d)
					}
				}
			}
			var digest float64
			for i := 0; i < u.Rows; i++ {
				for j := 0; j < u.Cols; j++ {
					digest += u.At(i, j) * math.Cos(0.7*float64(i)+1.3*float64(j)+float64(n))
				}
			}
			if d := math.Abs(digest - digests[n]); !(d <= 1e-12) {
				t.Errorf("seed %d mode %d: digest %.17g is %.3g off the recorded %.17g", seed, n, digest, d, digests[n])
			}
		}
	}
}

// The start is the same bits at every thread count: the fill is a pure
// function of (seed, row, column), and the Gram, the whitening and the
// rotation are thread-invariant. Mode 1 is near-square and modes 2–3
// square or one row more, so the second whitening pass runs there.
func TestInitialFactorsThreadInvariant(t *testing.T) {
	dims, ranks := []int{20000, 25, 11, 10}, []int{10, 10, 10, 10}
	for _, seed := range []int64{1, 9} {
		want := InitialFactors(dims, ranks, seed, 1)
		for _, threads := range []int{2, 3, 8} {
			for n, u := range InitialFactors(dims, ranks, seed, threads) {
				bitsEqual(t, fmt.Sprintf("seed %d threads %d mode %d", seed, threads, n), u.Data, want[n].Data)
			}
		}
	}
}

// A row's draw depends on its index alone: the fill of a mode with d
// rows is, bit for bit, the first d rows of the fill with d+k rows, at
// any thread count. A compacted mode or rows an update appends get the
// numbers they would have had in the whole mode.
func TestStartFillExtendsByRows(t *testing.T) {
	for _, d := range []int{1, 7, 64, 1000} {
		for _, k := range []int{1, 5, 3000} {
			short, long := dense.NewMatrix(d, 10), dense.NewMatrix(d+k, 10)
			fillStart(short, 4, 2)
			fillStart(long, 4, 3)
			bitsEqual(t, fmt.Sprintf("%d rows against %d", d, d+k), short.Data, long.Data[:len(short.Data)])
		}
	}
}

// The start is orthonormal to ‖UᵀU − I‖_max ≤ 1e-14 on every mode of the
// benchmark workloads' shapes (the update and distributed workloads
// share the first and third's) and on modes of rank rows or one more,
// whose fills are ill-conditioned enough that one whitening pass misses
// the bound and the second must run.
func TestInitialFactorsOrthonormal(t *testing.T) {
	type shape struct {
		dims, ranks []int
		seeds       []int64
	}
	shapes := []shape{
		{[]int{96000, 3400, 400}, []int{10, 10, 10}, []int64{1}},
		{[]int{640000, 301, 127600}, []int{10, 10, 10}, []int64{1}},
		{[]int{1400, 20000, 400000, 60000}, []int{5, 5, 5, 5}, []int64{1}},
	}
	for _, r := range []int{1, 2, 5, 10, 17} {
		shapes = append(shapes, shape{[]int{r, r + 1}, []int{r, r}, []int64{1, 2, 3, 4}})
	}
	for _, sh := range shapes {
		for _, seed := range sh.seeds {
			for n, u := range InitialFactors(sh.dims, sh.ranks, seed, 2) {
				g := dense.NewMatrix(u.Cols, u.Cols)
				dense.SyrkInto(g, u, nil, 2)
				for i := 0; i < g.Rows; i++ {
					for j := 0; j < g.Cols; j++ {
						want := 0.0
						if i == j {
							want = 1
						}
						if d := math.Abs(g.At(i, j) - want); !(d <= 1e-14) {
							t.Fatalf("dims %v seed %d mode %d: |UᵀU − I| is %.3g at (%d,%d)", sh.dims, seed, n, d, i, j)
						}
					}
				}
			}
		}
	}
}

// Fit histories recorded when the start became the counter-based fill;
// nothing in a sweep moves them, so they hold to rounding.
func TestFitHistoryUnchanged(t *testing.T) {
	for _, tc := range []struct {
		preset string
		scale  float64
		want   []float64
	}{
		{"netflix", 0.3, []float64{0.99867968491474468, 0.99878405903004597, 0.99878444058377736}},
		{"flickr", 0.05, []float64{0.97962483251331878, 0.98124700879280558, 0.98125809227037786}},
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
// must be InitialFactors' own, bit for bit: U_0 is the one mode the
// engine does not draw.
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
