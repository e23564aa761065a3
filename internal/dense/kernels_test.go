package dense

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// The differential tests of the axpy family: the dispatching wrappers
// (the AVX2 assembly on a CPU that has it) against the Go loops, bit for
// bit. Under -tags purego, or off amd64, both sides are the Go loops and
// the tests hold trivially; what they then still check is the wrappers'
// length rules.

const (
	kernelGuard  = 4       // canary elements either side of every y
	kernelCanary = 1.5e300 // finite, so a stray += would change its bits
)

// sameFloat is bitwise equality, except that any NaN equals any NaN:
// which payload survives when two different NaNs meet is the hardware's
// operand-order rule, which no path fixes (see kernels.go).
func sameFloat(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (a != a && b != b)
}

// guarded returns a length-n slice filled from next that starts off
// elements into a canary-filled backing array, with at least kernelGuard
// canaries either side. An odd off puts the slice at an address that is
// not a multiple of 16 or 32 bytes.
func guarded(n, off int, next func() float64) (backing, v []float64) {
	backing = make([]float64, kernelGuard+off+n+kernelGuard)
	for i := range backing {
		backing[i] = kernelCanary
	}
	v = backing[kernelGuard+off : kernelGuard+off+n]
	for i := range v {
		v[i] = next()
	}
	return backing, v
}

// twin clones a guarded backing array and returns the clone with the
// slice at the same position.
func twin(backing []float64, n, off int) (backing2, v2 []float64) {
	backing2 = slices.Clone(backing)
	return backing2, backing2[kernelGuard+off : kernelGuard+off+n]
}

func compareBacking(t *testing.T, kernel string, got, want []float64, n, m, off int) {
	t.Helper()
	for i := range want {
		if !sameFloat(got[i], want[i]) {
			t.Fatalf("%s n=%d m=%d off=%d: element %d of the guarded array (y starts at %d) is %x on the dispatched path (%s), %x on the Go loop",
				kernel, n, m, off, i, kernelGuard+off, math.Float64bits(got[i]), KernelName(), math.Float64bits(want[i]))
		}
	}
}

// kernelCase holds the three kernels to their Go loops on one shape:
// vectors of n elements starting off elements into their arrays, an
// m-row block for Ger, every value drawn from next. The four x rows of
// Axpy4 are longer than y and n+3 apart.
func kernelCase(t *testing.T, n, m, off int, next func() float64) {
	t.Helper()
	var a [4]float64
	for i := range a {
		a[i] = next()
	}
	stride := n + 3 // rows a few elements longer than y, at odd strides too
	_, xs := guarded(3*stride+n+2, off+1, next)
	yb, y := guarded(n, off, next)
	yb2, y2 := twin(yb, n, off)
	Axpy4(a[0], a[1], a[2], a[3], xs, stride, y)
	Axpy4Go(a[0], a[1], a[2], a[3], xs, stride, y2)
	compareBacking(t, "Axpy4", yb, yb2, n, m, off)
	// AxpyUnrolled against Axpy and, where the wrapper does not return
	// early, against its own Go loop.
	x := xs[:n]
	for _, alpha := range []float64{a[0], 0, math.Copysign(0, -1)} {
		yb2, y2 = twin(yb, n, off)
		AxpyUnrolled(alpha, x, y2)
		yb3, y3 := twin(yb, n, off)
		Axpy(alpha, x, y3)
		compareBacking(t, "AxpyUnrolled vs Axpy", yb2, yb3, n, m, off)
		if alpha != 0 {
			yb3, y3 = twin(yb, n, off)
			axpyUnrolledGo(alpha, x, y3)
			compareBacking(t, "AxpyUnrolled", yb2, yb3, n, m, off)
		}
	}

	_, c := guarded(m, off+1, next)
	if m > 1 {
		c[m/2] = 0
		c[m-1] = math.Copysign(0, -1)
	}
	gb, g := guarded(m*n, off, next)
	gb2, g2 := twin(gb, m*n, off)
	Ger(c, x, g)
	GerGo(c, x, g2)
	compareBacking(t, "Ger", gb, gb2, n, m, off)
}

// TestKernelsBitwise: every length from 0 through 67 (below one vector,
// every tail after whole vectors, past the widest unrolling), slices at
// even and odd element offsets, finite data and data salted with zeros
// of both signs, infinities, NaNs and denormals.
func TestKernelsBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	finite := rng.NormFloat64
	specials := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
		math.Float64frombits(0xfff8000000000000), 5e-324, -2.5e-310, math.MaxFloat64}
	salted := func() float64 {
		if rng.Intn(4) == 0 {
			return specials[rng.Intn(len(specials))]
		}
		return rng.NormFloat64()
	}
	for n := 0; n <= 67; n++ {
		for _, off := range []int{0, 1, 3} {
			for _, m := range []int{0, 1, 2, 5} {
				kernelCase(t, n, m, off, finite)
				kernelCase(t, n, m, off, salted)
			}
		}
	}
}

// A zero coefficient must shield y from an Inf or NaN in x where the Go
// loop's rule says so (Ger rows, Axpy), and must not where it does not
// (Axpy4) — on both paths.
func TestKernelZeroSkipRules(t *testing.T) {
	inf := make([]float64, 8)
	for i := range inf {
		inf[i] = math.Inf(1)
	}
	for _, zero := range []float64{0, math.Copysign(0, -1)} {
		y := make([]float64, 16)
		Ger([]float64{zero, zero}, inf, y)
		AxpyUnrolled(zero, inf, y[:8])
		for i, v := range y {
			if math.Float64bits(v) != 0 {
				t.Fatalf("zero coefficient %v let x through: y[%d] = %v", zero, i, v)
			}
		}
		Axpy4(zero, zero, zero, zero, inf, 0, y[:8])
		for i, v := range y[:8] {
			if v == v {
				t.Fatalf("Axpy4 skipped a zero coefficient: y[%d] = %v, want NaN", i, v)
			}
		}
	}
	// A NaN coefficient is not a zero.
	y := make([]float64, 8)
	Ger([]float64{math.NaN()}, make([]float64, 8), y)
	for i, v := range y {
		if v == v {
			t.Fatalf("Ger skipped a NaN coefficient: y[%d] = %v", i, v)
		}
	}
}

// The wrappers keep the Go loops' length rules: the assembly has no
// bounds checks of its own.
func TestKernelWrappersPanicOnBadLengths(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: no panic", name)
			}
		}()
		f()
	}
	long, y := make([]float64, 12), make([]float64, 12)
	short := make([]float64, 12)[:11:11]
	rows := make([]float64, 3*20+12)
	mustPanic("Axpy4 with a short last row", func() { Axpy4(1, 1, 1, 1, rows[:3*20+11], 20, y) })
	mustPanic("Axpy4 with a negative stride", func() { Axpy4(1, 1, 1, 1, rows, -1, y) })
	Axpy4(1, 1, 1, 1, rows, 20, y) // exactly long enough
	mustPanic("AxpyUnrolled with a short x", func() { AxpyUnrolled(1, short, y) })
	mustPanic("AxpyUnrolled with a long x", func() { AxpyUnrolled(1, long, y[:11]) })
	mustPanic("Ger with a short y", func() { Ger(long[:3], long[:4], y[:11]) })
	mustPanic("Ger with a long y", func() { Ger(long[:2], long[:5], y[:11]) })
	mustPanic("GerGo with a short y", func() { GerGo(long[:3], long[:4], y[:11]) })
}

func TestKernelsDoNotAllocate(t *testing.T) {
	x := make([]float64, 40)
	y := make([]float64, 40)
	c := []float64{1, 2, 3, 4}
	if n := testing.AllocsPerRun(100, func() {
		Axpy4(1, 2, 3, 4, x, 0, y)
		AxpyUnrolled(2, x, y)
		Ger(c, x[:10], y)
	}); n != 0 {
		t.Fatalf("%v allocations per run, want 0", n)
	}
}

// FuzzKernelsBitwise drives kernelCase from fuzzed shapes and values:
// each value is a selector byte (zeros, infinities, NaN, a denormal, raw
// bits, or a small dyadic number) and its payload, read round and round
// the input.
func FuzzKernelsBitwise(f *testing.F) {
	f.Add(uint8(10), uint8(10), uint8(1), []byte{7, 3, 9, 200, 2, 0, 1, 1})
	f.Add(uint8(67), uint8(2), uint8(3), []byte{4, 0, 2, 0, 0, 0, 6, 1, 2, 3, 4, 5, 6, 7, 0xf0, 0x7f})
	f.Add(uint8(5), uint8(5), uint8(0), []byte{})
	f.Fuzz(func(t *testing.T, n, m, off uint8, data []byte) {
		pos := 0
		nextByte := func() byte {
			if len(data) == 0 {
				return 0
			}
			b := data[pos%len(data)]
			pos++
			return b
		}
		next := func() float64 {
			switch sel := nextByte(); sel % 8 {
			case 0:
				return math.Copysign(0, float64(int8(nextByte())))
			case 1:
				return math.Inf(int(int8(nextByte())))
			case 2:
				return math.NaN()
			case 3:
				return float64(nextByte()) * 5e-324
			case 4:
				var bits uint64
				for i := 0; i < 8; i++ {
					bits = bits<<8 | uint64(nextByte())
				}
				return math.Float64frombits(bits)
			default:
				return float64(int8(nextByte())) / 16
			}
		}
		kernelCase(t, int(n%68), int(m%12), int(off%4), next)
	})
}
