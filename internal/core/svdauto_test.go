package core

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"hypertensor/internal/dense"
	"hypertensor/internal/gen"
	"hypertensor/internal/tensor"
	"hypertensor/internal/ttm"
)

// naiveHOOI is the oracle that shares no code with the library's HOOI:
// the tensor as a dense array, every TTMc as explicit mode products,
// every TRSVD as the Jacobi SVD of the explicit matricization, the fit
// from the core's norm. It returns the fit after each sweep. Meant for
// tensors of a few hundred cells whose matricized products have full
// rank (the Jacobi SVD does not complete a deficient basis).
func naiveHOOI(x *tensor.COO, initial []*dense.Matrix, sweeps int) []float64 {
	dims, order := x.Dims, x.Order()
	cells := 1
	for _, d := range dims {
		cells *= d
	}
	full := make([]float64, cells)
	for id, v := range x.Val {
		off := 0
		for n, d := range dims {
			off = off*d + int(x.Idx[n][id])
		}
		full[off] += v
	}
	normSq := func(t []float64) (s float64) {
		for _, v := range t {
			s += v * v
		}
		return s
	}
	u := append([]*dense.Matrix(nil), initial...)
	xx := normSq(full)
	var fits []float64
	for s := 0; s < sweeps; s++ {
		var core []float64
		for n := 0; n < order; n++ {
			y, d := full, append([]int(nil), dims...)
			for t := 0; t < order; t++ {
				if t != n {
					y, d[t] = modeProduct(y, d, t, u[t]), u[t].Cols
				}
			}
			outer, inner := 1, 1
			for _, s := range d[:n] {
				outer *= s
			}
			for _, s := range d[n+1:] {
				inner *= s
			}
			yn := dense.NewMatrix(d[n], outer*inner)
			for o := 0; o < outer; o++ {
				for i := 0; i < d[n]; i++ {
					copy(yn.Row(i)[o*inner:(o+1)*inner], y[(o*d[n]+i)*inner:(o*d[n]+i+1)*inner])
				}
			}
			u[n], _ = dense.LeadingLeftSingularVectors(yn, u[n].Cols)
			core = modeProduct(y, d, n, u[n])
		}
		fits = append(fits, 1-math.Sqrt(math.Max(xx-normSq(core), 0)/xx))
	}
	return fits
}

// modeProduct contracts mode m of the row-major dense tensor t (shape d)
// with u: out[.., j, ..] = Σ_i t[.., i, ..]·u[i][j], i.e. t ×_m uᵀ.
func modeProduct(t []float64, d []int, m int, u *dense.Matrix) []float64 {
	outer, inner := 1, 1
	for _, s := range d[:m] {
		outer *= s
	}
	for _, s := range d[m+1:] {
		inner *= s
	}
	out := make([]float64, outer*u.Cols*inner)
	for o := 0; o < outer; o++ {
		for i := 0; i < d[m]; i++ {
			for j := 0; j < u.Cols; j++ {
				for k := 0; k < inner; k++ {
					out[(o*u.Cols+j)*inner+k] += u.At(i, j) * t[(o*d[m]+i)*inner+k]
				}
			}
		}
	}
	return out
}

// Every solver the default can resolve to, and the default itself,
// against the naive dense HOOI, on tensors of order 2 to 4 from the
// same initial factors.
func TestSolversMatchNaiveDenseHOOI(t *testing.T) {
	for _, tc := range []struct {
		dims, ranks []int
		nnz         int
	}{
		{[]int{14, 11}, []int{3, 3}, 90},
		{[]int{9, 8, 7}, []int{3, 2, 3}, 260},
		{[]int{12, 5, 6}, []int{4, 2, 2}, 200}, // C = 4 = R in mode 0
		{[]int{6, 5, 4, 5}, []int{2, 2, 2, 2}, 330},
		{[]int{7, 6, 5, 4}, []int{3, 2, 2, 3}, 400},
	} {
		x := gen.Random(gen.Config{Dims: tc.dims, NNZ: tc.nnz, Skew: 0.3, Seed: 41})
		opts := Options{Ranks: tc.ranks, MaxIters: 4, Tol: -1, Seed: 6}
		opts.Initial = InitialFactors(x.Dims, tc.ranks, opts.Seed, opts.Threads)
		want := naiveHOOI(x, opts.Initial, opts.MaxIters)
		for _, svd := range []SVDMethod{SVDAuto, SVDLanczos, SVDGram} {
			opts.svd = svd
			res := mustRun(t, x, opts)
			for i, fit := range want {
				if d := math.Abs(res.FitHistory[i] - fit); !(d <= 1e-9) {
					t.Errorf("dims %v svd=%v sweep %d: fit %.15f, naive dense HOOI %.15f (off by %.3g)", tc.dims, svd, i+1, res.FitHistory[i], fit, d)
				}
			}
		}
	}
}

// SVDAuto's rule on the shapes it was measured on, either side of the
// boundary; a pinned solver is kept.
func TestResolveSVD(t *testing.T) {
	for _, tc := range []struct {
		cols, rank int
		want       SVDMethod
	}{
		{100, 10, SVDGram},     // order 3 at the paper's ranks
		{125, 5, SVDGram},      // order 4 at ranks 5
		{160, 5, SVDGram},      // the boundary
		{161, 5, SVDLanczos},   // just past it
		{1000, 10, SVDLanczos}, // order 4 at ranks 10
		{196, 14, SVDGram},     // order 3 at ranks 14
		{256, 16, SVDGram},     // the cap on C alone
		{257, 16, SVDLanczos},  // past it, at 16 columns per vector
		{289, 17, SVDLanczos},  // order 3 at ranks 17
		{400, 20, SVDLanczos},  // order 3 at ranks 20
		{1, 1, SVDGram},
	} {
		if got := ResolveSVD(SVDAuto, tc.cols, tc.rank); got != tc.want {
			t.Errorf("SVDAuto on %d columns at rank %d resolves to %v, want %v", tc.cols, tc.rank, got, tc.want)
		}
		for _, explicit := range []SVDMethod{SVDLanczos, SVDRandomized, SVDGram} {
			if got := ResolveSVD(explicit, tc.cols, tc.rank); got != explicit {
				t.Errorf("explicit %v was resolved to %v", explicit, got)
			}
		}
	}
}

// Where the default resolves to Gram, its fit trajectory is Lanczos's
// to 1e-9, early and late; none of its solves is cut short and each
// reads Y_(n) twice.
func TestGramDefaultTracksLanczosOnOrder3(t *testing.T) {
	for _, name := range []string{"netflix", "nell"} {
		x, ranks := presetTensor(t, name, 0.2)
		opts := Options{Ranks: ranks, MaxIters: 20, Tol: -1, Seed: 32, Threads: 2}
		auto := mustRun(t, x, opts)
		opts.svd = SVDLanczos
		lan := mustRun(t, x, opts)
		for _, sweep := range []int{5, 20} {
			if d := math.Abs(auto.FitHistory[sweep-1] - lan.FitHistory[sweep-1]); !(d <= 1e-9) {
				t.Errorf("%s sweep %d: auto fit %.15f, Lanczos %.15f (off by %.3g)", name, sweep, auto.FitHistory[sweep-1], lan.FitHistory[sweep-1], d)
			}
		}
		if solves := int64(20 * x.Order()); auto.TRSVDSolves != solves || auto.TRSVDPasses != 2*solves || auto.TRSVDUnconverged != 0 {
			t.Errorf("%s auto: %d solves, %d passes, %d unconverged; want %d, %d, 0", name, auto.TRSVDSolves, auto.TRSVDPasses, auto.TRSVDUnconverged, solves, 2*solves)
		}
		// YᵀY costs rows·C(C+1)/2 and Y·W rows·C·R, or in a mode that
		// takes the split (the tall mode 0 of both presets does) the
		// census's Split and the compact rows' product.
		var want int64
		split := false
		for n, m := range mustPlan(t, x, opts).sym.Modes {
			rows, c := m.NumRows(), ttm.RowSize(auto.Factors, n)
			gram, yw := int64(rows)*int64(c)*int64(c+1)/2, int64(rows)*int64(c)*int64(ranks[n])
			if cen := auto.Census[n]; cen.Plain != gram {
				t.Errorf("%s mode %d: census predicts %d plain Gram madds, want rows·C(C+1)/2 = %d", name, n, cen.Plain, gram)
			} else if cen.Taken() {
				gram, split = cen.Split, true
				yw = dense.KronMatMulMadds(rows-cen.Singletons, cen.Singletons, cen.Groups, c, ranks[cen.Group], ranks[n])
			}
			want += 20 * (gram + yw)
		}
		if !split {
			t.Errorf("%s: no mode took the split Gram", name)
		}
		if auto.TRSVDMadds != want {
			t.Errorf("%s auto: %d TRSVD madds, want Σ (Gram + Y·W) = %d", name, auto.TRSVDMadds, want)
		}
		if lan.TRSVDPasses <= 10*auto.TRSVDPasses {
			t.Errorf("%s: Lanczos made %d passes over Y, Gram %d", name, lan.TRSVDPasses, auto.TRSVDPasses)
		}
	}
}

func mustPlan(t *testing.T, x *tensor.COO, opts Options) *Plan {
	t.Helper()
	p, err := NewPlan(x, opts)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// resultDigest hashes the bits of a result's fit trajectory, factors
// and core.
func resultDigest(res *Result) string {
	h := sha256.New()
	write := func(vs []float64) {
		for _, v := range vs {
			var b [8]byte
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
			h.Write(b[:])
		}
	}
	write(res.FitHistory)
	for _, u := range res.Factors {
		write(u.Data)
	}
	write(res.Core.Data)
	return fmt.Sprintf("%x", h.Sum(nil)[:8])
}

// Lanczos on the order-4 shape runs what the commit before SVDAuto
// (e5aba02, Lanczos the default) ran, bit for bit, on a cold solve; the
// update after it runs every Lanczos TRSVD from its seeded start vector
// too, from the cold solve's factors. The cold digest is taken before
// the update, which overwrites the factors a Result shares with its
// engine. The default resolves every mode of that shape (125 columns
// for 5 vectors) and of the order-3 one to Gram.
func TestLanczosIsTheParentsOnOrder4(t *testing.T) {
	x, ranks := presetTensor(t, "delicious", 0.1)
	eng := NewEngine(mustPlan(t, x, Options{Ranks: ranks, MaxIters: 5, Tol: -1, Seed: 1, Threads: 2, svd: SVDLanczos}))
	cold, err := eng.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprint(cold.SVD); got != "[lanczos lanczos lanczos lanczos]" {
		t.Fatalf("svd=lanczos on ranks %v ran %s", ranks, got)
	}
	if got, want := resultDigest(cold), "92752353e98f387a"; got != want {
		t.Errorf("cold solve: digest %s, recorded %s", got, want)
	}
	upd, err := eng.Update(gen.Delta(x, 0.003, 0.003, 100))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := resultDigest(upd), "230f41bfbd55d8cd"; got != want {
		t.Errorf("update: digest %s, recorded %s", got, want)
	}

	for _, tc := range []struct {
		preset, want string
	}{{"delicious", "[gram gram gram gram]"}, {"netflix", "[gram gram gram]"}} {
		x, ranks := presetTensor(t, tc.preset, 0.1)
		eng := NewEngine(mustPlan(t, x, Options{Ranks: ranks, MaxIters: 3, Tol: -1, Seed: 1}))
		if _, err := eng.Run(context.Background()); err != nil {
			t.Fatal(err)
		}
		res, err := eng.Update(gen.Delta(x, 0.003, 0.003, 100))
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(res.SVD) != tc.want {
			t.Errorf("%s ran %v, want %s", tc.preset, res.SVD, tc.want)
		}
	}
}
