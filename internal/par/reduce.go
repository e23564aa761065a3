package par

import "unsafe"

// reduceBlocks is the fixed reduction grid width used by the
// deterministic parallel reductions: enough blocks to occupy the thread
// counts the paper sweeps (32), few enough that the sequential
// block-order combine stays negligible.
const reduceBlocks = 32

// NumReduceBlocks returns the number of contiguous blocks [0, n) is cut
// into for a bitwise thread-count-invariant parallel reduction. The
// grid depends only on n — never on the thread count — so partials
// combine in the same order however many workers computed them. Tiny n
// reduces sequentially (one block), and the grid grows with n (one
// block per 32 elements, capped) so small inputs do not pay for
// partials whose parallelism they cannot use.
func NumReduceBlocks(n int) int {
	nb := n / reduceBlocks
	if nb < 2 {
		return 1
	}
	if nb > reduceBlocks {
		return reduceBlocks
	}
	return nb
}

// OneBlock reports whether ReduceRows sums rows in one block, straight
// into dst: a caller may then run its block kernel on dst itself and
// skip setting up the Summer.
func OneBlock(rows int) bool { return NumReduceBlocks(rows) == 1 }

// lineFloats is the number of float64s in a 64-byte cache line.
const lineFloats = 8

// wholeLines rounds k float64s up to whole 64-byte cache lines.
func wholeLines(k int) int {
	return (k + lineFloats - 1) / lineFloats * lineFloats
}

// Summer is the two kernels of a row-space sum: Sum adds the terms of
// rows [lo, hi) into p, a zeroed partial as long as the sum, on worker
// w, an id below the thread count ReduceRows was given that lets it use
// per-worker scratch; Add adds a partial into dst elementwise with one
// rounding per element, the bits of dst[k] += p[k] (a vector kernel may
// do that where sums are wide).
type Summer interface {
	Sum(w int, p []float64, lo, hi int)
	Add(dst, p []float64)
}

// SummerFunc adapts a func to a Summer whose Add is the Go loop.
type SummerFunc func(p []float64, lo, hi int)

// Sum calls f(p, lo, hi).
func (f SummerFunc) Sum(_ int, p []float64, lo, hi int) { f(p, lo, hi) }

// Add adds p into dst elementwise.
func (SummerFunc) Add(dst, p []float64) {
	dst = dst[:len(p)]
	for k, v := range p {
		dst[k] += v
	}
}

// ReduceRows sets dst to the sum s computes over rows [0, rows). It is
// the one reduction behind every sum whose value must not depend on the
// thread count: the rows are cut into the fixed grid of
// NumReduceBlocks(rows), s adds each block into its own zeroed partial,
// and the partials are added into dst in block order, so the result is
// bitwise identical for every thread count. A one-block grid sums
// straight into dst. One thread reuses a single partial; more run the
// blocks on Dynamic, each partial in whole cache lines of its own, so
// no two workers write one line.
//
// The partials live in work, which is grown as needed and returned: a
// caller that keeps it, and passes a long-lived s, allocates nothing in
// steady state.
func ReduceRows(dst []float64, rows, threads int, work []float64, s Summer) []float64 {
	clear(dst)
	nb := NumReduceBlocks(rows)
	if nb == 1 {
		s.Sum(0, dst, 0, rows)
		return work
	}
	width := len(dst)
	threads = min(DefaultThreads(threads), nb)
	if threads == 1 {
		var p []float64
		work, p = lineAligned(work, width)
		for b := 0; b < nb; b++ {
			clear(p)
			lo, hi := Split(rows, nb, b)
			s.Sum(0, p, lo, hi)
			s.Add(dst, p)
		}
		return work
	}
	work, parts, stride := Slots(work, nb, width)
	r := begin(threads)
	r.reduce = reduceRun{rows: rows, nb: nb, width: width, stride: stride, parts: parts, s: s}
	r.runDynamic(nb, 1, &r.reduce)
	for b := 0; b < nb; b++ {
		s.Add(dst, parts[b*stride:b*stride+width])
	}
	return work
}

// Slots carves n per-worker slots of width float64s out of work, slot i
// at slots[i*stride:], each on 64-byte cache lines of its own; work is
// grown as needed and returned.
func Slots(work []float64, n, width int) (grown, slots []float64, stride int) {
	stride = wholeLines(width)
	grown, slots = lineAligned(work, n*stride)
	return grown, slots, stride
}

// lineAligned returns work, grown if it cannot hold n float64s from its
// first cache-line boundary, and the n float64s that start there.
func lineAligned(work []float64, n int) (grown, aligned []float64) {
	if cap(work) < n+lineFloats-1 {
		work = make([]float64, n+lineFloats-1)
	}
	work = work[:cap(work)]
	off := int(-uintptr(unsafe.Pointer(unsafe.SliceData(work))) % 64 / 8)
	return work, work[off : off+n]
}

// reduceRun is ReduceRows's Dynamic body over block ids, held in its
// region.
type reduceRun struct {
	rows, nb, width, stride int
	parts                   []float64
	s                       Summer
}

func (r *reduceRun) Run(w, lo, hi int) {
	for b := lo; b < hi; b++ {
		p := r.parts[b*r.stride : b*r.stride+r.width]
		clear(p)
		rlo, rhi := Split(r.rows, r.nb, b)
		r.s.Sum(w, p, rlo, rhi)
	}
}

// SumBlocks returns the sum of f over the blocks of the fixed grid of
// NumReduceBlocks(n): ReduceRows for a scalar, bitwise identical for
// every thread count.
func SumBlocks(n, threads int, f func(lo, hi int) float64) float64 {
	var s [1]float64
	ReduceRows(s[:], n, threads, nil, SummerFunc(func(p []float64, lo, hi int) { p[0] += f(lo, hi) }))
	return s[0]
}
