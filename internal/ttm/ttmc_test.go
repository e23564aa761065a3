package ttm

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
	"unsafe"

	"hypertensor/internal/dense"
	"hypertensor/internal/gen"
	"hypertensor/internal/symbolic"
	"hypertensor/internal/tensor"
)

// randomNormal fills a new r x c matrix with N(0,1) samples drawn from
// rng: the tests' operands.
func randomNormal(r, c int, rng *rand.Rand) *dense.Matrix {
	m := dense.NewMatrix(r, c)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

// kronMatrix builds the explicit Kronecker product of the given matrices
// (later matrices fastest), the reference operand for TTMc testing:
// Y_(n) = X_(n) * (U_{t1} ⊗ U_{t2} ⊗ ...).
func kronMatrix(ms []*dense.Matrix) *dense.Matrix {
	rows, cols := 1, 1
	for _, m := range ms {
		rows *= m.Rows
		cols *= m.Cols
	}
	out := dense.NewMatrix(rows, cols)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			v, ri, cj := 1.0, i, j
			// Decode multi-indices with the last matrix fastest.
			rdiv := rows
			cdiv := cols
			for _, m := range ms {
				rdiv /= m.Rows
				cdiv /= m.Cols
				v *= m.At(ri/rdiv, cj/cdiv)
				ri %= rdiv
				cj %= cdiv
			}
			out.Set(i, j, v)
		}
	}
	return out
}

// denseTTMcRef computes the full mode-n TTMc result via explicit dense
// matricization and Kronecker matrices. Rows for empty slices are zero.
func denseTTMcRef(x *tensor.COO, mode int, u []*dense.Matrix) *dense.Matrix {
	xd := tensor.DenseFromCOO(x)
	others := make([]*dense.Matrix, 0, len(u)-1)
	for t, m := range u {
		if t != mode {
			others = append(others, m)
		}
	}
	return dense.MatMul(xd.Matricize(mode), kronMatrix(others), 1)
}

// randomSetup builds a random sparse tensor, factor matrices, and the
// symbolic structure.
func randomSetup(rng *rand.Rand, dims, ranks []int, nnz int) (*tensor.COO, []*dense.Matrix, *symbolic.Structure) {
	x := tensor.NewCOO(dims, nnz)
	coord := make([]int, len(dims))
	for i := 0; i < nnz; i++ {
		for m := range coord {
			coord[m] = rng.Intn(dims[m])
		}
		x.Append(coord, rng.NormFloat64())
	}
	x.SortDedup()
	u := make([]*dense.Matrix, len(dims))
	for m := range u {
		u[m] = randomNormal(dims[m], ranks[m], rng)
	}
	return x, u, symbolic.Build(x, 1)
}

func TestTTMcMatchesDenseReference(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	cases := []struct {
		dims, ranks []int
		nnz         int
	}{
		{[]int{5, 6}, []int{2, 3}, 12},
		{[]int{4, 5, 6}, []int{2, 3, 2}, 30},
		{[]int{3, 4, 5, 2}, []int{2, 2, 3, 2}, 25},
	}
	for _, tc := range cases {
		x, u, sym := randomSetup(rng, tc.dims, tc.ranks, tc.nnz)
		for mode := 0; mode < x.Order(); mode++ {
			sm := &sym.Modes[mode]
			ref := denseTTMcRef(x, mode, u)
			for _, threads := range []int{1, 3} {
				y := dense.NewMatrix(sm.NumRows(), RowSize(u, mode))
				TTMc(y, x, sm, u, threads)
				for r, row := range sm.Rows {
					for c := 0; c < y.Cols; c++ {
						if math.Abs(y.At(r, c)-ref.At(int(row), c)) > 1e-10 {
							t.Fatalf("dims=%v mode=%d threads=%d: Y(%d,%d) = %v, want %v",
								tc.dims, mode, threads, row, c, y.At(r, c), ref.At(int(row), c))
						}
					}
				}
			}
		}
	}
}

func TestTTMcDeterministicAcrossThreads(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	x, u, sym := randomSetup(rng, []int{30, 20, 25}, []int{4, 3, 5}, 400)
	sm := &sym.Modes[1]
	y1 := dense.NewMatrix(sm.NumRows(), RowSize(u, 1))
	y4 := dense.NewMatrix(sm.NumRows(), RowSize(u, 1))
	TTMc(y1, x, sm, u, 1)
	TTMc(y4, x, sm, u, 4)
	for i := range y1.Data {
		if y1.Data[i] != y4.Data[i] {
			t.Fatalf("thread count changed bits at %d: %v vs %v", i, y1.Data[i], y4.Data[i])
		}
	}
}

// The resident kernel reuses its per-worker scratch across modes, ranks
// and thread counts: every call must still give TTMc's bits, and at one
// thread a warm call must allocate nothing.
func TestFlatReusesItsScratch(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	x, u, sym := randomSetup(rng, []int{30, 20, 25, 6}, []int{2, 3, 5, 2}, 400)
	flat := NewFlat(x, sym)
	ys := make([]*dense.Matrix, len(u))
	for _, threads := range []int{1, 4, 2} {
		for n := range u {
			sm := &sym.Modes[n]
			want := dense.NewMatrix(sm.NumRows(), RowSize(u, n))
			TTMc(want, x, sm, u, 1)
			ys[n] = dense.NewMatrix(sm.NumRows(), RowSize(u, n))
			flat.TTMc(ys[n], n, u, threads)
			for i := range want.Data {
				if math.Float64bits(ys[n].Data[i]) != math.Float64bits(want.Data[i]) {
					t.Fatalf("mode %d at %d threads: element %d is %v, a fresh TTMc gives %v", n, threads, i, ys[n].Data[i], want.Data[i])
				}
			}
		}
	}
	if a := testing.AllocsPerRun(5, func() {
		for n := range u {
			flat.TTMc(ys[n], n, u, 1)
		}
	}); a != 0 {
		t.Fatalf("a warm flat sweep allocates %v times, want 0", a)
	}
}

// Workers write their scratch once per nonzero, so no two workers'
// scratch may share a cache line (they did when the buffers were small
// allocations made back to back, and two threads ran slower than one
// core's worth apart).
func TestKronScratchWorkersShareNoCacheLine(t *testing.T) {
	const line = 64
	type span struct{ lo, hi uintptr } // the lines [lo, hi] a slice touches
	lines := func(p unsafe.Pointer, bytes int) span {
		return span{uintptr(p) / line, (uintptr(p) + uintptr(bytes) - 1) / line}
	}
	for _, kron := range []int{1, 5, 10, 25, 100} {
		// The tree's scratch (no accumulator) starts on a line too: at
		// ranks 5 its slab once came from a 208-byte size class.
		for w, sc := range growKronScratch(nil, 4, 4, kron, 0) {
			if uintptr(unsafe.Pointer(unsafe.SliceData(sc.bufA)))%line != 0 {
				t.Fatalf("kron=%d worker %d: the tree's prefix buffer does not start on a cache line", kron, w)
			}
		}
		sc := growKronScratch(nil, 4, 4, kron, kron)
		var spans [][]span
		for w := range sc {
			spans = append(spans, []span{
				lines(unsafe.Pointer(unsafe.SliceData(sc[w].rows)), len(sc[w].rows)*int(unsafe.Sizeof(sc[w].rows[0]))),
				lines(unsafe.Pointer(unsafe.SliceData(sc[w].bufA)), 8*kron),
				lines(unsafe.Pointer(unsafe.SliceData(sc[w].bufB)), 8*kron),
				lines(unsafe.Pointer(unsafe.SliceData(sc[w].acc)), 8*kron),
			})
			if cap(sc[w].bufA) < kron || cap(sc[w].bufB) < kron || len(sc[w].acc) < kron || len(sc[w].rows) != 4 {
				t.Fatalf("kron=%d worker %d: scratch too small", kron, w)
			}
		}
		for w := range spans {
			for v := w + 1; v < len(spans); v++ {
				for _, a := range spans[w] {
					for _, b := range spans[v] {
						if a.lo <= b.hi && b.lo <= a.hi {
							t.Fatalf("kron=%d: workers %d and %d share a cache line", kron, w, v)
						}
					}
				}
			}
		}
	}
}

// cooFrom builds an unsorted tensor from coordinates in the given order.
func cooFrom(dims []int, coords [][]int, vals []float64) *tensor.COO {
	x := tensor.NewCOO(dims, len(coords))
	for i, c := range coords {
		x.Append(c, vals[i])
	}
	return x
}

// flatSweep runs the resident kernel over every mode and returns the
// products with the kernel, whose counters then hold one sweep.
func flatSweep(x *tensor.COO, u []*dense.Matrix, sym *symbolic.Structure, threads int) ([]*dense.Matrix, *Flat) {
	flat := NewFlat(x, sym)
	ys := make([]*dense.Matrix, len(u))
	for n := range u {
		ys[n] = dense.NewMatrix(sym.Modes[n].NumRows(), RowSize(u, n))
		flat.TTMc(ys[n], n, u, threads)
	}
	return ys, flat
}

// closeTo holds got to want within tol of the largest entry of want.
func closeTo(t *testing.T, what string, got, want []float64, tol float64) {
	t.Helper()
	scale := 1.0
	for _, v := range want {
		scale = math.Max(scale, math.Abs(v))
	}
	for i := range want {
		if d := math.Abs(got[i] - want[i]); !(d <= tol*scale) {
			t.Fatalf("%s: element %d is %.17g, want %.17g (off by %.3g of %.3g)", what, i, got[i], want[i], d, scale)
		}
	}
}

// The run-factored loop against the un-fused oracle and the dense
// matricized product, to 1e-12 of the largest entry, in every mode of
// every shape that moves a run boundary: orders 1 to 5 (order 1
// contracts nothing, mode 0 leads with mode 1, the last mode contracts
// everything before it), modes of
// length one (a row is then a single run), rows of one nonzero, rows
// whose neighbours never share a leading index, and explicit zeros in
// the values and in the factor rows, which the rank-one kernel skips.
// What ran is what SweepFlops predicts from the lists, and the runs it
// reports are the ones the shape dictates.
func TestFlatMatchesNaiveAndDense(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	type shape struct {
		name        string
		x           *tensor.COO
		ranks       []int
		runsPerNZ   map[int]float64 // mode -> expected, where the shape fixes it
		zeroFactors bool
	}
	random := func(name string, dims, ranks []int, nnz int) shape {
		x, _, _ := randomSetup(rng, dims, ranks, nnz)
		return shape{name: name, x: x, ranks: ranks}
	}
	diag := cooFrom([]int{5, 5, 5}, [][]int{{0, 0, 0}, {1, 1, 1}, {2, 2, 2}, {3, 3, 3}, {4, 4, 4}}, []float64{1, -2, 3, -4, 5})
	// Row 0 of mode 0 lists five nonzeros with five leading indices; in
	// mode 1 and mode 2 every row holds one.
	fan := cooFrom([]int{2, 5, 5}, [][]int{{0, 0, 0}, {0, 1, 1}, {0, 2, 2}, {0, 3, 3}, {0, 4, 4}}, []float64{1, 2, 3, 4, 5})
	zeros := random("zeros in Val and factor rows", []int{6, 5, 7}, []int{3, 2, 4}, 60)
	zeros.zeroFactors = true
	for id := 0; id < zeros.x.NNZ(); id += 3 {
		zeros.x.Val[id] = 0
	}
	for _, sh := range []shape{
		random("order 1", []int{9}, []int{1}, 6),
		random("order 2", []int{7, 9}, []int{3, 4}, 25),
		random("order 3", []int{6, 5, 7}, []int{3, 2, 4}, 60),
		random("order 4", []int{4, 5, 3, 6}, []int{2, 3, 2, 2}, 80),
		random("order 5", []int{3, 4, 2, 3, 4}, []int{2, 2, 1, 3, 2}, 90),
		{name: "leading mode of length 1", x: random("", []int{1, 6, 5}, []int{1, 3, 2}, 20).x, ranks: []int{1, 3, 2}},
		random("middle mode of length 1", []int{5, 1, 6}, []int{2, 1, 3}, 20),
		random("last mode of length 1", []int{4, 5, 1}, []int{2, 3, 1}, 15),
		{name: "one nonzero a row", x: diag, ranks: []int{2, 3, 2}, runsPerNZ: map[int]float64{0: 1, 1: 1, 2: 1}},
		{name: "no two equal neighbours", x: fan, ranks: []int{2, 3, 2}, runsPerNZ: map[int]float64{0: 1, 1: 1, 2: 1}},
		zeros,
	} {
		x := sh.x
		sym := symbolic.Build(x, 1)
		u := make([]*dense.Matrix, x.Order())
		for m := range u {
			u[m] = randomNormal(x.Dims[m], sh.ranks[m], rng)
			if sh.zeroFactors {
				u[m].Row(0)[0] = 0
				clear(u[m].Row(x.Dims[m] - 1))
			}
		}
		ys, flat := flatSweep(x, u, sym, 1)
		if sh.name == "leading mode of length 1" {
			// Modes 1 and 2 lead with the one index of mode 0.
			sh.runsPerNZ = map[int]float64{
				1: float64(sym.Modes[1].NumRows()) / float64(x.NNZ()),
				2: float64(sym.Modes[2].NumRows()) / float64(x.NNZ()),
			}
		}
		for n := range u {
			sm := &sym.Modes[n]
			naive := dense.NewMatrix(sm.NumRows(), RowSize(u, n))
			TTMcNaive(naive, x, sm, u, 1)
			closeTo(t, fmt.Sprintf("%s mode %d vs TTMcNaive", sh.name, n), ys[n].Data, naive.Data, 1e-12)
			ref := denseTTMcRef(x, n, u)
			for r, slice := range sm.Rows {
				closeTo(t, fmt.Sprintf("%s mode %d slice %d vs dense", sh.name, n, slice), ys[n].Row(r), ref.Row(int(slice)), 1e-12)
			}
			if want, ok := sh.runsPerNZ[n]; ok && flat.RunsPerNZ(n) != want {
				t.Errorf("%s mode %d: %v runs per nonzero, want %v", sh.name, n, flat.RunsPerNZ(n), want)
			}
		}
		if got, want := flat.Flops(), flat.SweepFlops(sh.ranks); got != want {
			t.Errorf("%s: a sweep executed %d madds, SweepFlops predicts %d", sh.name, got, want)
		}
	}
}

// Rows are owner-computed in list order and runs are a function of the
// list alone, so every thread count gives the same bits and counts the
// same runs, in every mode of orders 2 to 4.
func TestFlatThreadInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	for _, tc := range []struct{ dims, ranks []int }{
		{[]int{60, 45}, []int{4, 3}},
		{[]int{40, 25, 30}, []int{4, 3, 5}},
		{[]int{12, 20, 9, 15}, []int{2, 3, 2, 4}},
	} {
		x, u, sym := randomSetup(rng, tc.dims, tc.ranks, 1500)
		want, one := flatSweep(x, u, sym, 1)
		for _, threads := range []int{2, 4, 8} {
			got, flat := flatSweep(x, u, sym, threads)
			for n := range want {
				for i, v := range want[n].Data {
					if math.Float64bits(got[n].Data[i]) != math.Float64bits(v) {
						t.Fatalf("dims %v mode %d threads %d: bit difference at %d", tc.dims, n, threads, i)
					}
				}
				if flat.RunsPerNZ(n) != one.RunsPerNZ(n) {
					t.Fatalf("dims %v mode %d: %v runs per nonzero at %d threads, %v at one", tc.dims, n, flat.RunsPerNZ(n), threads, one.RunsPerNZ(n))
				}
			}
			if flat.Flops() != one.Flops() {
				t.Fatalf("dims %v: %d madds at %d threads, %d at one", tc.dims, flat.Flops(), threads, one.Flops())
			}
		}
	}
}

// The same tensor with its nonzeros stored in random order: no
// sortedness is assumed, so the products agree to rounding with the
// sorted tensor's, the count is still what ran, and nearly every
// nonzero is a run of its own where the sorted order shared most.
func TestFlatShuffledOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(63))
	x, u, sym := randomSetup(rng, []int{30, 40, 35}, []int{3, 4, 2}, 6000)
	coords, vals := make([][]int, x.NNZ()), make([]float64, x.NNZ())
	for i, id := range rng.Perm(x.NNZ()) {
		coords[i] = make([]int, x.Order())
		x.Coord(id, coords[i])
		vals[i] = x.Val[id]
	}
	shuffled := cooFrom(x.Dims, coords, vals)
	ssym := symbolic.Build(shuffled, 1)
	ranks := []int{3, 4, 2}
	for _, threads := range []int{1, 4} {
		want, sorted := flatSweep(x, u, sym, threads)
		got, flat := flatSweep(shuffled, u, ssym, threads)
		for n := range want {
			closeTo(t, fmt.Sprintf("mode %d at %d threads", n, threads), got[n].Data, want[n].Data, 1e-12)
			if s, f := sorted.RunsPerNZ(n), flat.RunsPerNZ(n); f < 0.9 || s > 0.5 {
				t.Errorf("mode %d: %.2f runs per nonzero sorted, %.2f shuffled; want under 0.5 and over 0.9", n, s, f)
			}
		}
		if flat.Flops() != flat.SweepFlops(ranks) || flat.Flops() <= sorted.Flops() {
			t.Errorf("shuffled sweep executed %d madds, predicted %d, sorted %d", flat.Flops(), flat.SweepFlops(ranks), sorted.Flops())
		}
	}
}

// shuffledCopy is x with its nonzeros stored in a random order.
func shuffledCopy(rng *rand.Rand, x *tensor.COO) *tensor.COO {
	out, coord := tensor.NewCOO(x.Dims, x.NNZ()), make([]int, x.Order())
	for _, id := range rng.Perm(x.NNZ()) {
		x.Coord(id, coord)
		out.Append(coord, x.Val[id])
	}
	return out
}

// checkStreams holds sm.Streams(x) to its definition — for every mode
// the kernel reads, x.Idx[t] in list order — and returns it.
func checkStreams(t *testing.T, what string, x *tensor.COO, sm *symbolic.Mode) [][]int32 {
	t.Helper()
	s := sm.Streams(x)
	if len(s) != x.Order() {
		t.Fatalf("%s: %d streams for order %d", what, len(s), x.Order())
	}
	for m, st := range s {
		if m == sm.N && x.Order() > 1 {
			if st != nil {
				t.Fatalf("%s: the mode streams its own index", what)
			}
			continue
		}
		if len(st) != len(sm.NZ) {
			t.Fatalf("%s: stream %d lists %d entries, the mode %d", what, m, len(st), len(sm.NZ))
		}
		for p, id := range sm.NZ {
			if st[p] != x.Idx[m][id] {
				t.Fatalf("%s: stream %d position %d is %d, x.Idx[%d][NZ[%d]] is %d", what, m, p, st[p], m, p, x.Idx[m][id])
			}
		}
	}
	return s
}

// A mode's streams are the tensor's index arrays in the mode's list
// order, orders 1 to 5, sorted and shuffled: the identity list (mode 0 of
// a sorted tensor) shares the tensor's arrays and counts no bytes, any
// other list copies; a Select-ed mode's streams are the parent's at its
// rows; and across COO.Merge + Structure.Insert — value changes alone,
// then appends that reach an empty slice — the streams are a fresh
// Build's, a kernel built before a value-only merge gives a fresh
// kernel's bits, and so does one built on the structure Insert brought
// in line.
func TestModeStreams(t *testing.T) {
	rng := rand.New(rand.NewSource(65))
	for order := 1; order <= 5; order++ {
		dims := []int{40, 9, 11, 7, 8}[:order]
		sorted, _, _ := randomSetup(rng, dims, dims, 300)
		for _, in := range []struct {
			name string
			x    *tensor.COO
		}{{"sorted", sorted}, {"shuffled", shuffledCopy(rng, sorted)}} {
			x, sym := in.x, symbolic.Build(in.x, 1)
			var copied, held int64
			for n := range sym.Modes {
				sm, what := &sym.Modes[n], fmt.Sprintf("order %d %s mode %d", order, in.name, n)
				s := checkStreams(t, what, x, sm)
				for m, st := range s {
					if st == nil {
						continue
					}
					shares := unsafe.SliceData(st) == unsafe.SliceData(x.Idx[m])
					if want := in.name == "sorted" && n == 0; shares != want {
						t.Errorf("%s: stream %d shares the tensor's array: %v, want %v", what, m, shares, want)
					}
					if !shares {
						copied += 4 * int64(len(st))
					}
					if again := sm.Streams(x)[m]; unsafe.SliceData(again) != unsafe.SliceData(st) {
						t.Errorf("%s: a second call rebuilt stream %d", what, m)
					}
				}
				held += sm.StreamBytes()
				var rows []int32
				for r := 0; r < sm.NumRows(); r += 2 {
					rows = append(rows, int32(r))
				}
				sel := sm.Select(rows)
				ss := checkStreams(t, what+" selected", x, &sel)
				for m, st := range ss {
					if st == nil {
						continue
					}
					var want []int32
					for _, r := range rows {
						want = append(want, s[m][sm.Ptr[r]:sm.Ptr[r+1]]...)
					}
					if !slices.Equal(st, want) {
						t.Errorf("%s: selected stream %d is not the parent's at its rows", what, m)
					}
				}
			}
			if got := held; got != copied {
				t.Errorf("order %d %s: StreamBytes %d, the copies hold %d", order, in.name, got, copied)
			}
		}
	}

	x, u, sym := randomSetup(rng, []int{40, 9, 11}, []int{3, 4, 2}, 120)
	empty := slices.Index(sym.Modes[0].Pos, -1)
	if empty < 0 {
		t.Fatal("the tensor has no empty mode-0 slice to fill")
	}
	resident := NewFlat(x, sym)
	sameAsFresh := func(what string) {
		t.Helper()
		fresh := symbolic.Build(x, 1)
		want, _ := flatSweep(x, u, fresh, 2)
		for n := range u {
			sm := &sym.Modes[n]
			for m, st := range checkStreams(t, what, x, sm) {
				if !slices.Equal(st, fresh.Modes[n].Streams(x)[m]) {
					t.Fatalf("%s mode %d: stream %d differs from a fresh Build's", what, n, m)
				}
			}
			y := dense.NewMatrix(sm.NumRows(), RowSize(u, n))
			resident.TTMc(y, n, u, 2)
			for i, v := range want[n].Data {
				if math.Float64bits(y.Data[i]) != math.Float64bits(v) {
					t.Fatalf("%s mode %d: element %d is %v on the resident kernel, %v on a fresh one", what, n, i, y.Data[i], v)
				}
			}
		}
	}
	sameAsFresh("before any merge")
	coord := make([]int, 3)
	for _, step := range []struct {
		what    string
		appends [][]int
	}{
		{"after a value-only merge", nil},
		{"after appends", [][]int{{empty, 3, 4}, {empty, 0, 10}, {int(sym.Modes[0].Rows[0]), 8, 10}}},
	} {
		delta := tensor.NewCOO(x.Dims, 0)
		for _, id := range []int{0, 7, x.NNZ() - 1} {
			x.Coord(id, coord)
			delta.Append(coord, 0.5)
		}
		for _, c := range step.appends {
			delta.Append(c, 2)
		}
		oldNNZ := x.NNZ()
		if _, err := x.Merge(delta); err != nil {
			t.Fatal(err)
		}
		// The two coordinates in the empty slice are new for certain.
		if grew := x.NNZ() - oldNNZ; grew < min(len(step.appends), 2) || grew > len(step.appends) {
			t.Fatalf("%s: the merge appended %d nonzeros", step.what, grew)
		}
		if _, err := sym.Insert(x, oldNNZ); err != nil {
			t.Fatal(err)
		}
		if x.NNZ() > oldNNZ {
			resident = NewFlat(x, sym)
		}
		sameAsFresh(step.what)
	}
}

// flatGo is the run-factored loop written out on dense.GerGo: the
// kernel's definition, and what it must equal bit for bit whichever
// path dense.Ger dispatches to — so the assembly build and the purego
// build, which both equal this, equal each other.
func flatGo(x *tensor.COO, sm *symbolic.Mode, u []*dense.Matrix) *dense.Matrix {
	y := dense.NewMatrix(sm.NumRows(), RowSize(u, sm.N))
	a := leadMode(x.Order(), sm.N)
	for r := range sm.Rows {
		nz := sm.RowNZ(r)
		for p := 0; p < len(nz); {
			i := x.Idx[a][nz[p]]
			acc := make([]float64, y.Cols/u[a].Cols)
			for ; p < len(nz) && x.Idx[a][nz[p]] == i; p++ {
				kron, last := []float64{x.Val[nz[p]]}, []float64{1}
				for t := a + 1; t < x.Order(); t++ {
					if t == sm.N {
						continue
					}
					next := make([]float64, len(kron)*len(last))
					dense.GerGo(kron, last, next)
					kron, last = next, u[t].Row(int(x.Idx[t][nz[p]]))
				}
				dense.GerGo(kron, last, acc)
			}
			dense.GerGo(u[a].Row(int(i)), acc, y.Row(r))
		}
	}
	return y
}

func TestFlatMatchesGoLoopsBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(64))
	for _, tc := range []struct{ dims, ranks []int }{
		{[]int{50, 40}, []int{10, 7}},
		{[]int{30, 25, 20}, []int{10, 10, 10}},
		{[]int{30, 25, 20}, []int{3, 5, 9}},
		{[]int{30, 25, 20}, []int{17, 2, 20}}, // trailing rows of 20 (past the registers) and 2
		{[]int{30, 25, 20}, []int{16, 13, 16}},
		{[]int{10, 12, 9, 8}, []int{5, 5, 5, 5}},
		{[]int{6, 5, 4, 5, 6}, []int{2, 3, 4, 3, 2}},
	} {
		x, u, sym := randomSetup(rng, tc.dims, tc.ranks, 1200)
		got, _ := flatSweep(x, u, sym, 2)
		for n := range u {
			for i, v := range flatGo(x, &sym.Modes[n], u).Data {
				if math.Float64bits(got[n].Data[i]) != math.Float64bits(v) {
					t.Fatalf("dims %v ranks %v mode %d: element %d is %x on the %s kernels, %x on the Go loops",
						tc.dims, tc.ranks, n, i, math.Float64bits(got[n].Data[i]), dense.KernelName(), math.Float64bits(v))
				}
			}
		}
	}
}

// On the four presets the prediction from the lists is, to the
// multiply-add, what a sweep executes, and never above the nominal
// nnz x row size that Flops and SweepFlops keep reporting.
func TestFlatSweepFlopsMatchesMeasured(t *testing.T) {
	for _, name := range gen.PresetNames() {
		cfg, err := gen.Preset(name, 0.05)
		if err != nil {
			t.Fatal(err)
		}
		x := gen.Random(cfg)
		ranks := gen.PaperRanks(x.Order())
		u := make([]*dense.Matrix, x.Order())
		for m := range u {
			ranks[m] = min(ranks[m], x.Dims[m])
			u[m] = randomNormal(x.Dims[m], ranks[m], rand.New(rand.NewSource(int64(m))))
		}
		_, flat := flatSweep(x, u, symbolic.Build(x, 1), 2)
		if got, want := flat.Flops(), flat.SweepFlops(ranks); got != want || got >= SweepFlops(x.NNZ(), u) {
			t.Errorf("%s: a sweep executed %d madds, SweepFlops predicts %d, nominal %d", name, got, want, SweepFlops(x.NNZ(), u))
		}
	}
}

func TestTTMcNaiveMatchesFused(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	x, u, sym := randomSetup(rng, []int{10, 12, 8, 6}, []int{3, 2, 4, 2}, 200)
	for mode := 0; mode < x.Order(); mode++ {
		sm := &sym.Modes[mode]
		k := RowSize(u, mode)
		yf := dense.NewMatrix(sm.NumRows(), k)
		yn := dense.NewMatrix(sm.NumRows(), k)
		TTMc(yf, x, sm, u, 2)
		TTMcNaive(yn, x, sm, u, 2)
		if !yf.Equal(yn, 1e-10) {
			t.Fatalf("mode %d: naive and fused TTMc disagree", mode)
		}
	}
}

func TestTTMcMatrixCase(t *testing.T) {
	// Order 2: Y_(0) = X * U_1, a plain sparse-times-dense product.
	rng := rand.New(rand.NewSource(24))
	x, u, sym := randomSetup(rng, []int{7, 9}, []int{3, 4}, 20)
	sm := &sym.Modes[0]
	y := dense.NewMatrix(sm.NumRows(), RowSize(u, 0))
	TTMc(y, x, sm, u, 1)
	ref := denseTTMcRef(x, 0, u)
	for r, row := range sm.Rows {
		for c := 0; c < y.Cols; c++ {
			if math.Abs(y.At(r, c)-ref.At(int(row), c)) > 1e-10 {
				t.Fatal("order-2 TTMc wrong")
			}
		}
	}
}

func TestChainTTMcMatchesFused(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	for _, tc := range []struct {
		dims, ranks []int
		nnz         int
	}{
		{[]int{6, 7, 8}, []int{2, 3, 2}, 60},
		{[]int{4, 5, 3, 6}, []int{2, 2, 2, 3}, 40},
	} {
		x, u, sym := randomSetup(rng, tc.dims, tc.ranks, tc.nnz)
		for mode := 0; mode < x.Order(); mode++ {
			sm := &sym.Modes[mode]
			y := dense.NewMatrix(sm.NumRows(), RowSize(u, mode))
			TTMc(y, x, sm, u, 1)
			rows, yc := ChainTTMc(x, mode, u)
			if len(rows) != sm.NumRows() {
				t.Fatalf("mode %d: chain found %d rows, want %d", mode, len(rows), sm.NumRows())
			}
			for r := range rows {
				if rows[r] != sm.Rows[r] {
					t.Fatalf("mode %d: chain row order differs at %d", mode, r)
				}
			}
			if !y.Equal(yc, 1e-9) {
				t.Fatalf("dims=%v mode %d: chain result differs", tc.dims, mode)
			}
		}
	}
}

func TestCoreMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	dims, ranks := []int{5, 6, 4}, []int{2, 3, 2}
	x, u, sym := randomSetup(rng, dims, ranks, 40)
	// Orthonormal factors are the realistic input (HOOI maintains this).
	for m := range u {
		u[m], _ = dense.QR(u[m])
	}
	last := x.Order() - 1
	sm := &sym.Modes[last]
	y := dense.NewMatrix(sm.NumRows(), RowSize(u, last))
	TTMc(y, x, sm, u, 1)
	g := Core(y, sm, u[last], ranks, 1)

	// Naive reference: g[p,q,r] = sum_x x * U0(i,p) U1(j,q) U2(k,r).
	want := tensor.NewDense(ranks)
	coord := make([]int, 3)
	for t2 := 0; t2 < x.NNZ(); t2++ {
		x.Coord(t2, coord)
		v := x.Val[t2]
		for p := 0; p < ranks[0]; p++ {
			for q := 0; q < ranks[1]; q++ {
				for r := 0; r < ranks[2]; r++ {
					want.Data[want.Offset([]int{p, q, r})] +=
						v * u[0].At(coord[0], p) * u[1].At(coord[1], q) * u[2].At(coord[2], r)
				}
			}
		}
	}
	for i := range want.Data {
		if math.Abs(g.Data[i]-want.Data[i]) > 1e-10 {
			t.Fatalf("core mismatch at %d: %v vs %v", i, g.Data[i], want.Data[i])
		}
	}
}

func TestCoreMatricizedRoundtrip(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	ranks := []int{3, 2, 4}
	g := tensor.NewDense(ranks)
	for i := range g.Data {
		g.Data[i] = rng.NormFloat64()
	}
	for mode := 0; mode < 3; mode++ {
		m := MatricizeCore(g, mode)
		back := CoreFromMatricized(m, ranks, mode)
		for i := range g.Data {
			if g.Data[i] != back.Data[i] {
				t.Fatalf("mode %d roundtrip failed at %d", mode, i)
			}
		}
	}
}

func TestKronRows(t *testing.T) {
	dst := make([]float64, 6)
	KronRows([][]float64{{1, 2}, {3, 4, 5}}, dst)
	want := []float64{3, 4, 5, 6, 8, 10}
	for i := range want {
		if dst[i] != want[i] {
			t.Fatalf("KronRows = %v, want %v", dst, want)
		}
	}
	one := make([]float64, 1)
	KronRows(nil, one)
	if one[0] != 1 {
		t.Fatal("empty KronRows should yield [1]")
	}
}

// Property: Kronecker norm multiplicativity ||u ⊗ v|| = ||u||·||v||, and
// the mixed-product dot identity (u⊗v)·(x⊗y) = (u·x)(v·y).
func TestKronProperties(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n1, n2 := 1+rng.Intn(6), 1+rng.Intn(6)
		u := randVec(rng, n1)
		v := randVec(rng, n2)
		xv := randVec(rng, n1)
		yv := randVec(rng, n2)
		uv := make([]float64, n1*n2)
		xy := make([]float64, n1*n2)
		KronRows([][]float64{u, v}, uv)
		KronRows([][]float64{xv, yv}, xy)
		if math.Abs(dense.Nrm2(uv)-dense.Nrm2(u)*dense.Nrm2(v)) > 1e-10 {
			return false
		}
		return math.Abs(dense.Dot(uv, xy)-dense.Dot(u, xv)*dense.Dot(v, yv)) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func randVec(rng *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v
}

func TestRowSizeAndFlops(t *testing.T) {
	u := []*dense.Matrix{dense.NewMatrix(5, 2), dense.NewMatrix(6, 3), dense.NewMatrix(7, 4)}
	if RowSize(u, 0) != 12 || RowSize(u, 1) != 8 || RowSize(u, 2) != 6 {
		t.Fatal("RowSize wrong")
	}
	if Flops(100, 12) != 1200 {
		t.Fatal("Flops wrong")
	}
}

func BenchmarkTTMcFused(b *testing.B) {
	x := gen.Random(gen.Config{Dims: []int{3000, 2000, 1500}, NNZ: 100000, Skew: 0.6, Seed: 1})
	rng := rand.New(rand.NewSource(2))
	u := make([]*dense.Matrix, 3)
	for m := range u {
		u[m] = randomNormal(x.Dims[m], 10, rng)
	}
	sym := symbolic.Build(x, 0)
	sm := &sym.Modes[0]
	y := dense.NewMatrix(sm.NumRows(), RowSize(u, 0))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		TTMc(y, x, sm, u, 0)
	}
}

func BenchmarkTTMcNaive(b *testing.B) {
	x := gen.Random(gen.Config{Dims: []int{3000, 2000, 1500}, NNZ: 100000, Skew: 0.6, Seed: 1})
	rng := rand.New(rand.NewSource(2))
	u := make([]*dense.Matrix, 3)
	for m := range u {
		u[m] = randomNormal(x.Dims[m], 10, rng)
	}
	sym := symbolic.Build(x, 0)
	sm := &sym.Modes[0]
	y := dense.NewMatrix(sm.NumRows(), RowSize(u, 0))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		TTMcNaive(y, x, sm, u, 0)
	}
}
