package par

import (
	"math"
	"math/rand"
	"sync/atomic"
	"testing"
	"unsafe"
)

// rowSummer adds row i of a row-major rows x width array into the
// partial, counting every visit of a row and every partial that does not
// start on a 64-byte line.
type rowSummer struct {
	vals       []float64
	width      int
	visits     []atomic.Int32
	misaligned atomic.Int32
}

func (*rowSummer) Add(dst, p []float64) { SummerFunc(nil).Add(dst, p) }

func (s *rowSummer) Sum(p []float64, lo, hi int) {
	if uintptr(unsafe.Pointer(unsafe.SliceData(p)))%64 != 0 {
		s.misaligned.Add(1)
	}
	for i := lo; i < hi; i++ {
		s.visits[i].Add(1)
		for k, v := range s.vals[i*s.width : (i+1)*s.width] {
			p[k] += v
		}
	}
}

// ReduceRows against the rule written out serially: each block of the
// fixed grid summed into a zeroed partial, the partials added in block
// order. Every thread count must give those bits, visit every row once,
// and hand every block of a multi-block grid a partial on its own line,
// whatever the kept work buffer held and wherever it started.
func TestReduceRowsIsTheSerialBlockOrderSum(t *testing.T) {
	for _, rows := range []int{0, 1, 63, 64, 1000, 65537} {
		for _, width := range []int{1, 3, 13} {
			rng := rand.New(rand.NewSource(int64(rows*31 + width)))
			vals := make([]float64, rows*width)
			for i := range vals {
				vals[i] = rng.NormFloat64() * math.Exp(4*rng.NormFloat64())
			}
			nb := NumReduceBlocks(rows)
			want := make([]float64, width)
			for b := 0; b < nb; b++ {
				lo, hi := Split(rows, nb, b)
				p := make([]float64, width)
				for i := lo; i < hi; i++ {
					for k := range p {
						p[k] += vals[i*width+k]
					}
				}
				for k, v := range p {
					want[k] += v
				}
			}
			work := make([]float64, 1<<12)[1:] // a kept buffer that starts off a line
			for i := range work {
				work[i] = math.NaN()
			}
			for _, threads := range []int{1, 2, 3, 8} {
				s := &rowSummer{vals: vals, width: width, visits: make([]atomic.Int32, rows)}
				got := []float64{math.NaN()}
				got = append(got, make([]float64, width-1)...)
				work = ReduceRows(got, rows, threads, work, s)
				for k := range want {
					if math.Float64bits(got[k]) != math.Float64bits(want[k]) {
						t.Fatalf("rows=%d width=%d threads=%d: element %d is %v, serial block order gives %v", rows, width, threads, k, got[k], want[k])
					}
				}
				for i := range s.visits {
					if n := s.visits[i].Load(); n != 1 {
						t.Fatalf("rows=%d width=%d threads=%d: row %d visited %d times", rows, width, threads, i, n)
					}
				}
				if n := s.misaligned.Load(); nb > 1 && n != 0 {
					t.Fatalf("rows=%d width=%d threads=%d: %d partials start off a cache line", rows, width, threads, n)
				}
			}
		}
	}
}

// Block partials are strided by wholeLines from the first line boundary
// of the work buffer, so no two blocks share a cache line.
func TestWholeLinesSlabsStartOnALine(t *testing.T) {
	var work []float64
	for k := 1; k <= 1024; k++ {
		n := wholeLines(k)
		if n%lineFloats != 0 || n < k || n >= k+lineFloats {
			t.Fatalf("wholeLines(%d) = %d", k, n)
		}
		var slab []float64
		work, slab = lineAligned(work[min(k%3, len(work)):], n)
		if len(slab) != n {
			t.Fatalf("lineAligned gave %d float64s, want %d", len(slab), n)
		}
		if p := uintptr(unsafe.Pointer(unsafe.SliceData(slab))); p%64 != 0 {
			t.Fatalf("a slab of %d float64s starts %d bytes into a cache line", n, p%64)
		}
	}
}

// Every worker's slot starts on a cache line and no two slots share one,
// whatever the width and however far into a line the work buffer starts.
func TestSlotsStartOnALine(t *testing.T) {
	var work []float64
	for _, n := range []int{1, 2, 3, 8} {
		for width := 1; width <= 130; width++ {
			var slots []float64
			var stride int
			work, slots, stride = Slots(work[min(width%3, len(work)):], n, width)
			if stride < width || len(slots) < n*stride {
				t.Fatalf("n=%d width=%d: stride %d over %d float64s", n, width, stride, len(slots))
			}
			for i := range n {
				if p := uintptr(unsafe.Pointer(&slots[i*stride])); p%64 != 0 {
					t.Fatalf("n=%d width=%d: slot %d starts %d bytes into a cache line", n, width, i, p%64)
				}
			}
		}
	}
}
