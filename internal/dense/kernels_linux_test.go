package dense

import (
	"fmt"
	"math/rand"
	"runtime/debug"
	"syscall"
	"testing"
	"unsafe"
)

// atPageEnd copies s to the end of a fresh page that a page with no access
// follows, so that reading one element past it faults.
func atPageEnd(t *testing.T, s []int32) []int32 {
	t.Helper()
	page := syscall.Getpagesize()
	mem, err := syscall.Mmap(-1, 0, 2*page, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		t.Skipf("mmap: %v", err)
	}
	t.Cleanup(func() { syscall.Munmap(mem) })
	if err := syscall.Mprotect(mem[page:], syscall.PROT_NONE); err != nil {
		t.Skipf("mprotect: %v", err)
	}
	out := unsafe.Slice((*int32)(unsafe.Pointer(&mem[page-4*len(s)])), len(s))
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
