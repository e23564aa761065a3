package dense

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
)

// kronCase is a matrix whose rows past multi are grouped Kronecker
// products, built the way the flat TTMc builds a one-nonzero row of
// order 3: the lead factor's row times the accumulator x·(trail row).
type kronCase struct {
	name  string
	multi int
	sizes []int // rows per group
	rg, c int   // u's and v's lengths
	slow  bool
	zero  int // a group whose u is zero, or -1
}

func (kc kronCase) build(rng *rand.Rand) (*Matrix, *KronRows) {
	n := kc.rg * kc.c
	singles := 0
	for _, s := range kc.sizes {
		singles += s
	}
	a := RandomNormal(kc.multi+singles, n, rng)
	u := RandomNormal(3*len(kc.sizes)+1, kc.rg, rng)
	k := &KronRows{Multi: kc.multi, Ptr: []int32{0}, U: u, Slow: kc.slow}
	row := kc.multi
	for j, s := range kc.sizes {
		k.Idx = append(k.Idx, int32(3*j+1))
		k.Ptr = append(k.Ptr, k.Ptr[j]+int32(s))
		if j == kc.zero {
			clear(u.Row(3*j + 1))
		}
		uj := u.Row(3*j + 1)
		for ; row < kc.multi+int(k.Ptr[j+1]); row++ {
			x := 1 + rng.Float64()
			acc := make([]float64, kc.c)
			for q := range acc {
				acc[q] = x * rng.NormFloat64()
			}
			y := a.Row(row)
			for p, up := range uj {
				for q, aq := range acc {
					if kc.slow {
						y[p*kc.c+q] = up * aq
					} else {
						y[q*kc.rg+p] = up * aq
					}
				}
			}
		}
	}
	return a, k
}

var kronCases = []kronCase{
	{"slow", 130, []int{5, 1, 9, 2, 40, 3, 7, 1, 1, 12}, 10, 10, true, -1},
	{"fast", 130, []int{5, 1, 9, 2, 40, 3, 7, 1, 1, 12}, 10, 10, false, -1},
	{"uneven slow", 71, []int{3, 8, 2, 1, 30, 6}, 3, 7, true, -1},
	{"uneven fast", 71, []int{3, 8, 2, 1, 30, 6}, 7, 3, false, -1},
	{"group of one", 90, []int{1}, 4, 6, true, -1},
	{"every row a singleton", 0, []int{20, 1, 33, 4, 4, 17, 2, 60}, 5, 4, false, -1},
	{"no singleton row", 257, nil, 6, 5, true, -1},
	{"zero u_g row", 64, []int{6, 11, 3, 25}, 4, 4, true, 1},
	{"order 2", 70, []int{4, 1, 19, 2, 36}, 9, 1, true, -1},
}

// SyrkKronInto is SyrkInto summed in another order: within 1e-13 of the
// largest entry of the full SYRK on every kernel path, exactly symmetric,
// and the full SYRK's bits when there is no grouped row.
func TestSyrkKronMatchesSyrk(t *testing.T) {
	onEachPath(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(41))
		for _, kc := range kronCases {
			a, k := kc.build(rng)
			n := a.Cols
			want := NewMatrix(n, n)
			SyrkInto(want, a, nil, 1)
			got := NewMatrix(n, n)
			got.Data[0] = 99 // the destination is overwritten, not added to
			SyrkKronInto(got, a, k, nil, 2)
			var scale, diff float64
			for i, w := range want.Data {
				scale = max(scale, math.Abs(w))
				diff = max(diff, math.Abs(got.Data[i]-w))
			}
			if diff > 1e-13*scale {
				t.Errorf("%s: |G - SyrkInto| = %g, %g of its largest entry", kc.name, diff, diff/scale)
			}
			if len(k.Idx) == 0 && !bytes.Equal(bits(got.Data), bits(want.Data)) {
				t.Errorf("%s: not SyrkInto's bits", kc.name)
			}
			for i := 0; i < n; i++ {
				for j := 0; j < i; j++ {
					if math.Float64bits(got.At(i, j)) != math.Float64bits(got.At(j, i)) {
						t.Fatalf("%s: G is not symmetric at (%d,%d)", kc.name, i, j)
					}
				}
			}
		}
	})
}

// SyrkKronInto gives the same bits at every thread count and on every
// kernel path, with or without a kept work buffer.
func TestSyrkKronBitwiseInvariantAcrossThreads(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	type built struct {
		a *Matrix
		k *KronRows
	}
	cases := make([]built, len(kronCases))
	for i, kc := range kronCases {
		cases[i].a, cases[i].k = kc.build(rng)
	}
	ref := make([][]byte, len(kronCases))
	onEachPath(t, func(t *testing.T) {
		var work []float64
		for _, threads := range []int{1, 2, 3, 8} {
			for i, c := range cases {
				g := NewMatrix(c.a.Cols, c.a.Cols)
				work = SyrkKronInto(g, c.a, c.k, work, threads)
				if ref[i] == nil {
					ref[i] = bits(g.Data)
					continue
				}
				if !bytes.Equal(bits(g.Data), ref[i]) {
					t.Fatalf("%s on %s at %d threads differs from the first path at 1 thread", kronCases[i].name, KernelName(), threads)
				}
			}
		}
	})
}

// The madds SyrkKronInto is counted at: the multi rows' SYRK, each
// grouped row's c x c triangle, and Pᵀ·S.
func TestSyrkKronMadds(t *testing.T) {
	if got, want := SyrkMadds(7, 100), int64(7*5050); got != want {
		t.Errorf("SyrkMadds(7, 100) = %d, want %d", got, want)
	}
	if got, want := SyrkKronMadds(7, 30, 4, 100, 10), int64(7*5050+30*55+4*10000); got != want {
		t.Errorf("SyrkKronMadds = %d, want %d", got, want)
	}
}
