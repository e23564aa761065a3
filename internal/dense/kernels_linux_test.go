package dense

import (
	"fmt"
	"math/rand"
	"runtime/debug"
	"syscall"
	"testing"
	"unsafe"
)

// atPageEnd copies s to the end of fresh pages that a page with no access
// follows, so that touching one element past it faults.
func atPageEnd[T int32 | float64](t *testing.T, s []T) []T {
	t.Helper()
	page, n := syscall.Getpagesize(), len(s)*int(unsafe.Sizeof(s[0]))
	size := (n + page - 1) / page * page
	mem, err := syscall.Mmap(-1, 0, size+page, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		t.Skipf("mmap: %v", err)
	}
	t.Cleanup(func() { syscall.Munmap(mem) })
	if err := syscall.Mprotect(mem[size:], syscall.PROT_NONE); err != nil {
		t.Skipf("mprotect: %v", err)
	}
	out := unsafe.Slice((*T)(unsafe.Pointer(&mem[size-n])), len(s))
	copy(out, s)
	return out
}

// TestGatherLookAheadStopsAtCapacity: with every index array ending where
// unreadable memory begins, GatherGer and GatherOuter read no element past
// the arrays' capacity — the look-ahead's bound — and give the Go loops'
// bits, for each register width and rows shorter and longer than the
// look-ahead.
func TestGatherLookAheadStopsAtCapacity(t *testing.T) {
	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
	rng := rand.New(rand.NewSource(38))
	for _, r := range []int{3, 6, 10, 16} {
		_, x := guardedMatrix(5, r, rng.NormFloat64)
		_, l := guardedMatrix(4, 3, rng.NormFloat64)
		for _, n := range []int{1, 5, 40} {
			vals := make([]float64, n)
			keys, ids, cols := make([]int32, n), make([]int32, n), make([]int32, n)
			for p := range keys {
				vals[p] = rng.NormFloat64()
				keys[p], ids[p], cols[p] = int32(p/3%l.Rows), int32(rng.Intn(n)), int32(rng.Intn(x.Rows))
			}
			gk, gi, gc := atPageEnd(t, keys), atPageEnd(t, ids), atPageEnd(t, cols)
			label := fmt.Sprintf("r=%d n=%d", r, n)
			func() {
				defer func() {
					if e := recover(); e != nil {
						t.Fatalf("%s: %v", label, e)
					}
				}()
				y, y2 := make([]float64, 3*r), make([]float64, 3*r)
				GatherGer(gk, l, vals, gi, gc, x, make([]float64, r), y)
				gatherGerGo(keys, l, vals, ids, cols, x, make([]float64, r), y2)
				compareGuarded(t, "GatherGer "+label, y, y2, 0)
				GatherOuter(gk, l, vals, gi, gc, x, make([]float64, 3), y)
				gatherOuterGo(keys, l, vals, ids, cols, x, y2)
				compareGuarded(t, "GatherOuter "+label, y, y2, 0)
				GatherOuter(nil, nil, vals, gi, gc, x, make([]float64, 1), y[:r])
				gatherOuterGo(nil, nil, vals, ids, cols, x, y2[:r])
				compareGuarded(t, "GatherOuter unit "+label, y[:r], y2[:r], 0)
			}()
		}
	}
}

// TestTilesStopAtTheData: with an operand's data and the destination each
// ending where unreadable memory begins, the register tiles read and
// write nothing past the last column of the last row — the masked tails
// load and store only their live lanes — and give the Go loops' bits, on
// every path the host has, for every tail width past the last whole eight
// and sixteen.
func TestTilesStopAtTheData(t *testing.T) {
	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
	onEachPath(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(39))
		for _, cols := range []int{4, 5, 8, 9, 12, 15, 16, 17, 20, 23, 24, 31, 33} {
			const rows = 12
			label := fmt.Sprintf("cols=%d", cols)
			func() {
				defer func() {
					if e := recover(); e != nil {
						t.Fatalf("%s: %v", label, e)
					}
				}()
				a := &Matrix{Rows: rows, Cols: cols, Data: atPageEnd(t, RandomNormal(rows, cols, rng).Data)}
				f := &Matrix{Rows: rows, Cols: 4, Data: atPageEnd(t, RandomNormal(rows, 4, rng).Data)}
				want := RandomNormal(cols, cols, rng).Data
				p := atPageEnd(t, want)
				syrkBlock(p, a, 0, rows)
				syrkBlockGo(want, a, 0, rows)
				for j := 0; j < cols; j++ {
					copy(p[j*cols:j*cols+j], want[j*cols:j*cols+j]) // below the diagonal: unspecified
				}
				compareGuarded(t, "syrkBlock "+label, p, want, 0)
				wantQ := RandomNormal(4, cols, rng).Data
				q := atPageEnd(t, wantQ)
				matMulTABlock(q, f, a, 0, rows)
				matMulTABlockGo(wantQ, f, a, 0, rows)
				compareGuarded(t, "matMulTABlock "+label, q, wantQ, 0)
			}()
		}
	})
}
