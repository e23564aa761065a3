package dist

import (
	"fmt"
	"slices"

	"hypertensor/internal/hypergraph"
	"hypertensor/internal/tensor"
)

// Grain selects the distributed task granularity.
type Grain int

const (
	// Coarse assigns whole slices: rank k owns slice set I_n^k in every
	// mode and stores every nonzero of its owned slices.
	Coarse Grain = iota
	// Fine assigns individual nonzeros; slice ownership is derived from
	// the nonzero placement.
	Fine
)

// grainNames and methodNames are the short names of the experiment
// tables, which the CLIs parse.
var (
	grainNames  = []string{Coarse: "coarse", Fine: "fine"}
	methodNames = []string{MethodHypergraph: "hp", MethodRandom: "rd", MethodBlock: "bl"}
)

// String renders the short name used in the experiment tables.
func (g Grain) String() string { return grainNames[g] }

// ParseGrain reads a grain's short name: fine or coarse.
func ParseGrain(s string) (Grain, error) { return parseName[Grain](grainNames, "grain", s) }

// parseName returns the index of s in names, the value it names.
func parseName[T ~int](names []string, kind, s string) (T, error) {
	if i := slices.Index(names, s); i >= 0 {
		return T(i), nil
	}
	return 0, fmt.Errorf("unknown %s %q", kind, s)
}

// Method selects the task placement strategy.
type Method int

const (
	// MethodHypergraph places tasks with the multilevel hypergraph
	// partitioner (the paper's PaToH stand-in), minimizing the
	// connectivity-1 cutsize = communication volume.
	MethodHypergraph Method = iota
	// MethodRandom places tasks uniformly at random (balanced in count,
	// oblivious to communication).
	MethodRandom
	// MethodBlock places contiguous index blocks (balanced in weight).
	MethodBlock
)

// String renders the short name used in the experiment tables.
func (m Method) String() string { return methodNames[m] }

// ParseMethod reads a placement's short name: hp, rd or bl.
func ParseMethod(s string) (Method, error) { return parseName[Method](methodNames, "method", s) }

// Partition is a task assignment of a tensor to P ranks.
type Partition struct {
	P      int
	Grain  Grain
	Method Method
	// NZOwner is the owning rank of every nonzero (fine grain only; nil
	// for coarse grain, where nonzero storage follows slice ownership).
	NZOwner []int32
	// RowOwner[n][i] is the rank owning mode-n slice i, or -1 when the
	// slice is empty. Exactly one rank owns each nonempty slice: it
	// accumulates the folded Y_(n) row and computes and distributes the
	// corresponding factor row.
	RowOwner [][]int32
}

// Name returns the configuration label used in the paper's tables,
// e.g. "fine-hp".
func (p *Partition) Name() string { return fmt.Sprintf("%s-%s", p.Grain, p.Method) }

// MakePartition builds a task partition of x for p ranks.
func MakePartition(x *tensor.COO, p int, g Grain, m Method, seed int64) (*Partition, error) {
	if p < 1 {
		return nil, fmt.Errorf("dist: need at least 1 rank, got %d", p)
	}
	if x.NNZ() == 0 {
		return nil, fmt.Errorf("dist: cannot partition an empty tensor")
	}
	part := &Partition{P: p, Grain: g, Method: m, RowOwner: make([][]int32, x.Order())}
	switch g {
	case Fine:
		part.NZOwner = fineNZOwners(x, p, m, seed)
		for n := 0; n < x.Order(); n++ {
			part.RowOwner[n] = rowOwnersFromNZ(x, n, part.NZOwner, p)
		}
	case Coarse:
		for n := 0; n < x.Order(); n++ {
			part.RowOwner[n] = coarseRowOwners(x, n, p, m, seed+int64(n))
		}
	default:
		return nil, fmt.Errorf("dist: unknown grain %d", g)
	}
	return part, nil
}

// fineNZOwners assigns every nonzero to a rank.
func fineNZOwners(x *tensor.COO, p int, m Method, seed int64) []int32 {
	if p == 1 {
		return make([]int32, x.NNZ())
	}
	switch m {
	case MethodRandom:
		return hypergraph.PartitionRandom(x.NNZ(), p, seed)
	case MethodBlock:
		w := make([]int64, x.NNZ())
		for i := range w {
			w[i] = 1
		}
		return hypergraph.PartitionBlock(w, p)
	default:
		h := hypergraph.FineGrainModel(x)
		return hypergraph.Partition(h, hypergraph.Options{Parts: p, Seed: seed})
	}
}

// rowOwnersFromNZ derives slice ownership from a fine-grain nonzero
// placement: each nonempty slice goes to the rank holding most of its
// nonzeros (ties to the lowest rank), so the fold volume is minimized
// given the placement.
func rowOwnersFromNZ(x *tensor.COO, mode int, nzOwner []int32, p int) []int32 {
	dim := x.Dims[mode]
	counts := make([]int32, dim*p)
	for id, ix := range x.Idx[mode] {
		counts[int(ix)*p+int(nzOwner[id])]++
	}
	owner := make([]int32, dim)
	for i := 0; i < dim; i++ {
		owner[i] = -1
		best := int32(0)
		for r := 0; r < p; r++ {
			if c := counts[i*p+r]; c > best {
				best = c
				owner[i] = int32(r)
			}
		}
	}
	return owner
}

// coarseRowOwners partitions one mode's slices across the ranks,
// weighting each slice by its nonzero count (the coarse task weight
// w(t_i^n) of the paper).
func coarseRowOwners(x *tensor.COO, mode, p int, m Method, seed int64) []int32 {
	dim := x.Dims[mode]
	counts := x.ModeCounts(mode)
	var parts []int32
	if p == 1 {
		parts = make([]int32, dim)
	} else {
		switch m {
		case MethodRandom:
			weights := make([]int64, dim)
			for i, c := range counts {
				weights[i] = int64(c)
			}
			parts = hypergraph.PartitionRandomBalanced(weights, p, seed)
		case MethodBlock:
			weights := make([]int64, dim)
			for i, c := range counts {
				weights[i] = int64(c)
			}
			parts = hypergraph.PartitionBlock(weights, p)
		default:
			h := hypergraph.CoarseGrainModel(x, mode)
			parts = hypergraph.Partition(h, hypergraph.Options{Parts: p, Seed: seed})
		}
	}
	owner := make([]int32, dim)
	for i := range owner {
		if counts[i] == 0 {
			owner[i] = -1
		} else {
			owner[i] = parts[i]
		}
	}
	return owner
}
