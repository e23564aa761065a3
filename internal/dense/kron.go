package dense

import (
	"math"
	"sync"

	"hypertensor/internal/par"
)

// KronRows describes the rows of a matrix A past its first Multi that
// are each one scaled Kronecker product with a factor row they share in
// groups: group j is rows Multi+Ptr[j] up to Multi+Ptr[j+1], u_j is row
// Idx[j] of U, and every row i of the group is x_i·(u_j ⊗ v_i) when Slow
// holds and x_i·(v_i ⊗ u_j) otherwise, for a scalar x_i and a vector v_i
// of A.Cols/U.Cols entries. These are the rows of a mode-n TTMc that one
// nonzero builds: together they add Σ_j (u_j u_jᵀ) ⊗ S_j to AᵀA, where
// S_j = Σ_i x_i²·v_i v_iᵀ is c x c, c = A.Cols/U.Cols, so SyrkKronInto
// sums them in c(c+1)/2 multiply-adds a row and A.Cols² a group, where a
// SYRK spends A.Cols(A.Cols+1)/2 a row.
type KronRows struct {
	Multi int
	Ptr   []int32
	Idx   []int32
	U     *Matrix
	Slow  bool
}

// SyrkMadds is the multiply-adds SyrkInto runs on a rows x cols matrix:
// the upper triangle, cols(cols+1)/2 a row.
func SyrkMadds(rows, cols int) int64 {
	return int64(rows) * int64(cols) * int64(cols+1) / 2
}

// SyrkKronMadds is the multiply-adds SyrkKronInto runs on a matrix of
// cols columns whose KronRows hold multi leading rows and singles rows in
// groups groups on a factor of rg columns: the SYRK of the multi rows,
// the upper triangle of each grouped row's c x c term (c = cols/rg), and
// the groups x rg² by groups x c² product Pᵀ·S.
func SyrkKronMadds(multi, singles, groups, cols, rg int) int64 {
	c := cols / rg
	return SyrkMadds(multi, cols) + SyrkMadds(singles, c) + int64(groups)*int64(cols)*int64(cols)
}

// SyrkKronInto computes G = AᵀA as SyrkInto does, for an A whose rows
// past k.Multi are k's grouped Kronecker products: SyrkInto over the
// first k.Multi rows, plus K = Σ_j (u_j u_jᵀ) ⊗ S_j. Each group's S_j is
// summed serially, in row order, from one slice of each of its rows — the
// c = A.Cols/U.Cols entries at u_j's largest entry u_j[at], which hold
// x_i·u_j[at]·v_i — and the rescaling by u_j[at] goes once into the
// group's row of P, vec(w wᵀ) with w = u_j/u_j[at]. A group whose u_j is
// zero adds nothing. The groups run on the dynamic schedule and K's
// entries are the one product Pᵀ·S (MatMulTAInto), so g is bitwise
// identical for every thread count; it is AᵀA summed in another order,
// and exactly symmetric. P, S, their product and the workers' panels
// live in work once the SYRK's partials are spent; work is grown as
// needed and returned, as SyrkInto's is.
func SyrkKronInto(g, a *Matrix, k *KronRows, work []float64, threads int) []float64 {
	n, rg := a.Cols, k.U.Cols
	c := n / rg
	if c*rg != n || k.Multi+int(k.Ptr[len(k.Idx)]) != a.Rows {
		panic("dense: SyrkKronInto shape mismatch")
	}
	r := kronRuns.Get().(*kronRun)
	r.multi = Matrix{Rows: k.Multi, Cols: n, Data: a.Data[:k.Multi*n]}
	work = SyrkInto(g, &r.multi, work, threads)
	groups := len(k.Idx)
	if groups == 0 {
		r.release()
		return work
	}
	// Work after the SYRK's partials: P, S, their product M, and each
	// worker's panel of kronPanelRows slices.
	workers := min(par.DefaultThreads(threads), groups)
	np, ns, nm, nt := groups*rg*rg, groups*c*c, rg*rg*c*c, kronPanelRows*c
	if need := np + ns + nm + workers*nt; cap(work) < need {
		work = make([]float64, need)
	}
	work = work[:cap(work)]
	r.p = Matrix{Rows: groups, Cols: rg * rg, Data: work[:np]}
	r.s = Matrix{Rows: groups, Cols: c * c, Data: work[np : np+ns]}
	r.m = Matrix{Rows: rg * rg, Cols: c * c, Data: work[np+ns : np+ns+nm]}
	r.slices = work[np+ns+nm : np+ns+nm+workers*nt]
	if len(r.panels) < workers {
		r.panels = make([]Matrix, workers)
	}
	r.a, r.k, r.c = a, k, c
	par.Dynamic(groups, workers, 1, r)
	MatMulTAInto(&r.m, &r.p, &r.s, threads)

	// K[(u, v), (u', v')] = M[(u, u'), (v, v')], with the Kronecker
	// layout of A's columns: u slow when k.Slow, fast otherwise.
	us, vs := c, 1
	if !k.Slow {
		us, vs = 1, rg
	}
	for u := 0; u < rg; u++ {
		for u2 := 0; u2 < rg; u2++ {
			mrow := r.m.Row(u*rg + u2)
			for v := 0; v < c; v++ {
				grow := g.Data[(u*us+v*vs)*n:]
				for v2, val := range mrow[v*c : v*c+c] {
					grow[u2*us+v2*vs] += val
				}
			}
		}
	}
	r.release()
	return work
}

// kronPanelRows is how many rows' slices a worker gathers into its
// panel before summing them: enough independent loads to keep many rows
// of A in flight, a panel that stays in L1. No result depends on it
// beyond which slices sit past a panel's last whole four (syrkBlock).
const kronPanelRows = 64

// kronRun is SyrkKronInto's pooled state: the matrix headers it hands
// the kernels and the group loop's operands, so that a call allocates
// nothing.
type kronRun struct {
	multi, p, s, m Matrix
	a              *Matrix
	k              *KronRows
	c              int
	// slices holds each worker's panel data, panels the headers.
	slices []float64
	panels []Matrix
}

var kronRuns = sync.Pool{New: func() any { return new(kronRun) }}

// release drops r's references to the call's matrices, keeping the
// panel headers' storage, and returns r to the pool.
func (r *kronRun) release() {
	clear(r.panels)
	*r = kronRun{panels: r.panels}
	kronRuns.Put(r)
}

// Run sets the rows of P and S of groups [lo, hi) on worker w's panel.
func (r *kronRun) Run(w, lo, hi int) {
	n := kronPanelRows * r.c
	panel := &r.panels[w]
	for j := lo; j < hi; j++ {
		r.group(j, panel, r.slices[w*n:(w+1)*n])
	}
}

// group sets row j of P to vec(w wᵀ), w = u_j/u_j[at], and row j of S to
// Σ t tᵀ over the group's rows in order, t the row's slice at u_j[at]:
// the slices are gathered into the panel kronPanelRows at a time and
// summed there by the SYRK block kernel.
func (r *kronRun) group(j int, panel *Matrix, data []float64) {
	k, c, n := r.k, r.c, r.a.Cols
	u := k.U.Row(int(k.Idx[j]))
	p, s := r.p.Row(j), r.s.Row(j)
	clear(s)
	at := 0
	for i, v := range u {
		if math.Abs(v) > math.Abs(u[at]) {
			at = i
		}
	}
	if u[at] == 0 {
		clear(p)
		return
	}
	inv := 1 / u[at]
	rg := len(u)
	for i, ui := range u {
		wi := ui * inv
		for i2, ui2 := range u {
			p[i*rg+i2] = wi * (ui2 * inv)
		}
	}
	off, stride := at*c, 1
	if !k.Slow {
		off, stride = at, rg
	}
	end := k.Multi + int(k.Ptr[j+1])
	for lo := k.Multi + int(k.Ptr[j]); lo < end; lo += kronPanelRows {
		hi := min(lo+kronPanelRows, end)
		*panel = Matrix{Rows: hi - lo, Cols: c, Data: data[:(hi-lo)*c]}
		for i := lo; i < hi; i++ {
			t, dst := r.a.Data[i*n+off:(i+1)*n], panel.Row(i-lo)
			for v := range dst {
				dst[v] = t[v*stride]
			}
		}
		syrkBlock(s, panel, 0, hi-lo)
	}
	for v := 1; v < c; v++ {
		for v2 := 0; v2 < v; v2++ {
			s[v*c+v2] = s[v2*c+v]
		}
	}
}
