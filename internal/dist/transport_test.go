package dist

import (
	"context"
	"math"
	"net"
	"sync"
	"testing"
	"time"

	"hypertensor/internal/core"
	"hypertensor/internal/gen"
	"hypertensor/internal/mpi"
	"hypertensor/internal/tensor"
	"hypertensor/internal/ttm"
)

// tcpWorlds stands up one TCPWorld per rank over loopback, using
// pre-bound ephemeral-port listeners like the cmd/hooi spawn launcher.
func tcpWorlds(t *testing.T, p int) []*mpi.TCPWorld {
	t.Helper()
	lns := make([]net.Listener, p)
	addrs := make([]string, p)
	for r := 0; r < p; r++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("listen: %v", err)
		}
		lns[r] = ln
		addrs[r] = ln.Addr().String()
	}
	worlds := make([]*mpi.TCPWorld, p)
	errs := make([]error, p)
	var wg sync.WaitGroup
	wg.Add(p)
	for r := 0; r < p; r++ {
		go func(r int) {
			defer wg.Done()
			worlds[r], errs[r] = mpi.ConnectTCP(context.Background(), r, addrs, mpi.TCPOptions{
				Listener: lns[r], Timeout: 60 * time.Second,
			})
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d connect: %v", r, err)
		}
	}
	return worlds
}

// TestTransportEquivalence is the transport contract of the PR: the same
// HOOI run (same tensor, partition, seed) over the simulated in-process
// world and over a real TCP mesh must produce bitwise-identical fit
// trajectories, factors, and payload-byte accounting.
func TestTransportEquivalence(t *testing.T) {
	x := testTensor3(t)
	cfg := Config{MaxIters: 3, Tol: -1, Seed: 17}

	var parts []*Partition
	for _, pc := range []struct {
		p int
		g Grain
		m Method
	}{
		{2, Fine, MethodHypergraph},
		{4, Fine, MethodHypergraph},
		{4, Coarse, MethodBlock},
		// Odd worlds: the dissemination barrier and the reduce/broadcast
		// trees take their non-power-of-two branches.
		{3, Fine, MethodHypergraph},
		{5, Fine, MethodRandom},
		{3, Coarse, MethodHypergraph},
		{5, Coarse, MethodBlock},
	} {
		part, err := MakePartition(x, pc.p, pc.g, pc.m, 11)
		if err != nil {
			t.Fatal(err)
		}
		parts = append(parts, part)
	}
	idle := idleRankPartition(x, 3)
	parts = append(parts, idle)

	// The shape picks each mode's solver: Gram at ranks 3 (9 columns for
	// 3 vectors), and at ranks 2,9,8 Lanczos, the other solver it can
	// pick, in mode 0 (72 columns for 2 vectors, past 32 a vector).
	for _, ranks := range [][]int{{3, 3, 3}, {2, 9, 8}} {
		cfg.Ranks = ranks
		for _, part := range parts {
			sim := worldMatchesTCP(t, x, part, cfg)
			for n := range sim.Stats.Mode {
				for r, ms := range sim.Stats.Mode[n] {
					if part == idle && r == idle.P-1 && (ms.WTTMc != 0 || ms.WTRSVD != 0) {
						t.Fatalf("mode %d: the idle rank was given work: %+v", n, ms)
					}
					// Two collectives per Gram solve, on every rank, the
					// idle one included; a Lanczos solve enters dozens.
					if gram := ranks[n] != 2; gram != (ms.TRSVDMsgs == 2) {
						t.Fatalf("%s ranks %v mode %d rank %d: %d TRSVD collectives per sweep", part.Name(), ranks, n, r, ms.TRSVDMsgs)
					}
				}
			}
		}
	}
}

// worldMatchesTCP runs the same solve over the simulated world and over
// a TCP mesh and requires every TCP rank's fit trajectory, factors,
// core and byte accounting (per rank, and per mode and phase) to equal
// the simulated result's bit for bit. It returns the simulated result.
func worldMatchesTCP(t *testing.T, x *tensor.COO, part *Partition, cfg Config) *Result {
	t.Helper()
	sim, err := Decompose(x, part, cfg)
	if err != nil {
		t.Fatalf("%s simulated: %v", part.Name(), err)
	}
	worlds := tcpWorlds(t, part.P)
	results := make([]*Result, part.P)
	errs := make([]error, part.P)
	var wg sync.WaitGroup
	wg.Add(part.P)
	for r := 0; r < part.P; r++ {
		go func(r int) {
			defer wg.Done()
			results[r], errs[r] = DecomposeWorld(context.Background(), worlds[r], x, part, cfg)
		}(r)
	}
	wg.Wait()
	for r := 0; r < part.P; r++ {
		if errs[r] != nil {
			t.Fatalf("%s tcp rank %d: %v", part.Name(), r, errs[r])
		}
	}
	for r, res := range results {
		if len(res.FitHistory) != len(sim.FitHistory) {
			t.Fatalf("%s rank %d: %d sweeps over TCP vs %d simulated",
				part.Name(), r, len(res.FitHistory), len(sim.FitHistory))
		}
		for i := range sim.FitHistory {
			if res.FitHistory[i] != sim.FitHistory[i] { // bitwise, not approximate
				t.Fatalf("%s rank %d sweep %d: TCP fit %.17g != simulated %.17g",
					part.Name(), r, i, res.FitHistory[i], sim.FitHistory[i])
			}
		}
		for n := range sim.Factors {
			for i := range sim.Factors[n].Data {
				if res.Factors[n].Data[i] != sim.Factors[n].Data[i] {
					t.Fatalf("%s rank %d: factor %d differs at %d", part.Name(), r, n, i)
				}
			}
		}
		for i := range sim.Core.Data {
			if res.Core.Data[i] != sim.Core.Data[i] {
				t.Fatalf("%s rank %d: core differs at %d", part.Name(), r, i)
			}
		}
		for q := 0; q < part.P; q++ {
			if res.Stats.SentBytes[q] != sim.Stats.SentBytes[q] {
				t.Fatalf("%s rank %d: TCP accounting for rank %d is %d bytes, simulated %d",
					part.Name(), r, q, res.Stats.SentBytes[q], sim.Stats.SentBytes[q])
			}
			for n := range sim.Stats.Mode {
				if res.Stats.Mode[n][q] != sim.Stats.Mode[n][q] {
					t.Fatalf("%s rank %d: TCP stats for rank %d in mode %d are %+v, simulated %+v",
						part.Name(), r, q, n, res.Stats.Mode[n][q], sim.Stats.Mode[n][q])
				}
			}
		}
	}
	return sim
}

// On an order-4 tensor the TTMc strategy is each rank plan's choice:
// the tree on a fine-grain rank, the flat kernel on a coarse-grain one
// (its update lists are restricted to owned slices) and on a rank that
// holds nothing. Either way World ≡ TCP, at even and odd world sizes,
// and the fits agree with the two-rank coarse-grain world's, which runs
// the flat kernel on every rank, to rounding. Each rank's multiply-adds
// say which kernel ran: a flat rank executes what the flat kernel counts
// on its local lists, a tree rank less.
func TestDefaultRankPlansOnOrder4(t *testing.T) {
	x := testTensor4(t)
	cfg := Config{Ranks: []int{2, 2, 3, 2}, MaxIters: 3, Tol: -1, Seed: 5}
	var parts []*Partition
	for _, p := range []int{2, 3} {
		for _, g := range []Grain{Coarse, Fine} {
			part, err := MakePartition(x, p, g, MethodHypergraph, 3)
			if err != nil {
				t.Fatal(err)
			}
			parts = append(parts, part)
		}
	}
	parts = append(parts, idleRankPartition(x, 3))
	var flat *Result
	for _, part := range parts {
		sim := worldMatchesTCP(t, x, part, cfg)
		if flat == nil {
			flat = sim
		}
		for i, fit := range flat.FitHistory {
			if d := math.Abs(sim.FitHistory[i] - fit); !(d <= 1e-10) {
				t.Fatalf("%s sweep %d: fit %.17g is %.3g off the all-flat world's", part.Name(), i+1, sim.FitHistory[i], d)
			}
		}
		rankEx := make([]*exchange, part.P)
		if _, err := decompose(context.Background(), mpi.NewWorld(part.P), x, part, cfg, seam{wrap: func(ex *exchange) core.Exchange {
			rankEx[ex.me] = ex
			return ex
		}}); err != nil {
			t.Fatal(err)
		}
		for r, madds := range sim.Stats.TTMcMadds {
			flatMadds := ttm.NewFlat(rankEx[r].xloc, rankEx[r].sym).SweepFlops(cfg.Ranks) * int64(cfg.MaxIters)
			tree := part.Grain == Fine && flatMadds > 0
			if tree && madds >= flatMadds {
				t.Fatalf("%s rank %d: %d TTMc madds by default, the flat kernel %d — not the tree", part.Name(), r, madds, flatMadds)
			}
			if !tree && madds != flatMadds {
				t.Fatalf("%s rank %d: %d TTMc madds by default, the flat kernel %d — not the flat kernel", part.Name(), r, madds, flatMadds)
			}
		}
	}
}

// idleRankPartition is a fine-grain partition whose last rank holds no
// nonzero and owns no row, and must all the same enter every collective
// with empty buffers.
func idleRankPartition(x *tensor.COO, p int) *Partition {
	part := &Partition{P: p, Grain: Fine, Method: MethodBlock,
		NZOwner: make([]int32, x.NNZ()), RowOwner: make([][]int32, x.Order())}
	for id := range part.NZOwner {
		part.NZOwner[id] = int32(id % (p - 1))
	}
	for n := range part.RowOwner {
		part.RowOwner[n] = rowOwnersFromNZ(x, n, part.NZOwner, p)
	}
	return part
}

// TestTransportEquivalenceStatsComplete: every TCP rank must end with a
// full Stats block (the end-of-run allgather), matching the simulated
// per-mode communication volumes exactly.
func TestTransportEquivalenceStatsComplete(t *testing.T) {
	x := testTensor4(t)
	cfg := Config{Ranks: []int{2, 2, 3, 2}, MaxIters: 2, Tol: -1, Seed: 5}
	part, err := MakePartition(x, 3, Fine, MethodHypergraph, 3)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := Decompose(x, part, cfg)
	if err != nil {
		t.Fatal(err)
	}

	worlds := tcpWorlds(t, 3)
	results := make([]*Result, 3)
	var wg sync.WaitGroup
	wg.Add(3)
	for r := 0; r < 3; r++ {
		go func(r int) {
			defer wg.Done()
			res, err := DecomposeWorld(context.Background(), worlds[r], x, part, cfg)
			if err != nil {
				t.Errorf("rank %d: %v", r, err)
				return
			}
			results[r] = res
		}(r)
	}
	wg.Wait()
	for r, res := range results {
		if res == nil {
			t.Fatalf("rank %d produced no result", r)
		}
		st := res.Stats
		if st.P != 3 || len(st.RankWall) != 3 || len(st.SentBytes) != 3 || len(st.Mode) != x.Order() {
			t.Fatalf("rank %d: stats mis-shaped: %+v", r, st)
		}
		for q := 0; q < 3; q++ {
			if st.RankWall[q] <= 0 {
				t.Fatalf("rank %d: no wall time recorded for rank %d", r, q)
			}
		}
		for n := range st.Mode {
			for q := range st.Mode[n] {
				if st.Mode[n][q] != sim.Stats.Mode[n][q] {
					t.Fatalf("rank %d mode %d: TCP stats %+v, simulated %+v",
						r, n, st.Mode[n][q], sim.Stats.Mode[n][q])
				}
			}
		}
		if got, want := st.TotalSentBytes(), sim.Stats.TotalSentBytes(); got != want {
			t.Fatalf("rank %d: total sent %d, simulated %d", r, got, want)
		}
	}
}

// TestDecomposeWorldSizeMismatch: a world of the wrong size must be
// rejected before any communication happens.
func TestDecomposeWorldSizeMismatch(t *testing.T) {
	x := testTensor3(t)
	part, err := MakePartition(x, 3, Fine, MethodHypergraph, 1)
	if err != nil {
		t.Fatal(err)
	}
	_, err = DecomposeWorld(context.Background(), mpi.NewWorld(2), x, part, Config{Ranks: []int{3, 3, 3}, MaxIters: 1, Tol: -1})
	if err == nil {
		t.Fatal("accepted a 2-rank world for a 3-rank partition")
	}
}

// What one sweep of the four presets at scale 0.2 puts on the wire under
// the fine-grain hypergraph partition (3 sweeps, no tolerance stop), on
// both transports: the whole run's payload per sweep, its expand, fold
// and TRSVD parts, the number of TRSVD collectives, and the fit the run
// ends at. The bytes are functions of the partition and the solver alone,
// so they are held with ==, and so is the fit; a change that
// legitimately moves one edits the literal. The solver is the one the
// shape selects. At the paper's ranks the default resolves every preset
// to Gram (recorded when SVDAuto arrived for order 3 and when it took
// order 4 at ranks 5 from Lanczos), whose one packed triangle of
// C(C+1)/2 doubles per solve is more payload than the few dozen C-vectors
// a Lanczos solve that converges early reduces at this scale (on order 4,
// 7875 doubles a solve: about 4x Lanczos's TRSVD bytes) — and two
// collectives per solve where Lanczos enters several hundred. nell at
// ranks 17 has C = 289 columns in every mode, past the Gram side's cap,
// and is the Lanczos row. Summed over the rows, the np=4 hypergraph
// placements must also send less expand+fold than block placements would
// (one preset alone may not: netflix's sorted nonzero order hands the
// block placement a smaller cut than the multilevel partitioner finds).
func TestRecordedWireBytes(t *testing.T) {
	type cell struct {
		np                       int
		net, expand, fold, trsvd int64   // per sweep, all ranks
		trsvdMsgs                int64   // per sweep, all ranks
		fit                      float64 // after the last sweep
	}
	var hp4, block4 int64
	for _, want := range []struct {
		preset string
		ranks  []int // nil: the paper's, each capped at its mode's size
		cells  [2]cell
	}{
		{"netflix", nil, [2]cell{{2, 327200, 7872, 65280, 188704, 12, 0.9987526011280594}, {4, 978720, 23296, 193280, 566112, 24, 0.9987526011281862}}},
		{"nell", nil, [2]cell{{2, 567440, 18960, 189600, 247200, 12, 0.9972652739953954}, {4, 1490240, 37600, 376000, 741600, 24, 0.9972652739952481}}},
		{"delicious", nil, [2]cell{{2, 916640, 12720, 318000, 505600, 16, 0.9887611128283414}, {4, 2434800, 26040, 651000, 1516800, 32, 0.9887611128282723}}},
		{"flickr", nil, [2]cell{{2, 821026, 9840, 246000, 505600, 16, 0.9928143133015103}, {4, 2199960, 19400, 485000, 1516800, 32, 0.99281431330144}}},
		{"nell", []int{17, 17, 17}, [2]cell{{2, 1344837, 32232, 547944, 523396, 4560, 0.9978861537011011}, {4, 3444544, 63920, 1086640, 1570190, 9120, 0.9978861537014443}}},
	} {
		cfg, err := gen.Preset(want.preset, 0.2)
		if err != nil {
			t.Fatal(err)
		}
		x := gen.Random(cfg)
		ranks := want.ranks
		if ranks == nil {
			ranks = gen.PaperRanks(x.Order())
			for n := range ranks {
				ranks[n] = min(ranks[n], x.Dims[n])
			}
		}
		for i, np := range []int{2, 4} {
			part, err := MakePartition(x, np, Fine, MethodHypergraph, 32)
			if err != nil {
				t.Fatal(err)
			}
			res := worldMatchesTCP(t, x, part, Config{Ranks: ranks, MaxIters: 3, Tol: -1, Seed: 32})
			got := cell{np: np, net: res.Stats.TotalSentBytes() / int64(res.Iters), fit: res.Fit}
			for n := range res.Stats.Mode {
				for _, ms := range res.Stats.Mode[n] {
					got.expand += ms.ExpandBytes
					got.fold += ms.FoldBytes
					got.trsvd += ms.TRSVDBytes
					got.trsvdMsgs += ms.TRSVDMsgs
				}
			}
			if got != want.cells[i] {
				t.Errorf("%s ranks %v: {np net expand fold trsvd trsvdMsgs fit} per sweep %v, recorded %v", want.preset, ranks, got, want.cells[i])
			}
			// A Gram solve enters at most three collectives on a rank;
			// a Lanczos solve, dozens.
			if solves, gram := int64(x.Order()*np), want.ranks == nil; gram != (got.trsvdMsgs <= 3*solves) {
				t.Errorf("%s ranks %v np=%d: %d TRSVD collectives per sweep for %d solves", want.preset, ranks, np, got.trsvdMsgs, solves)
			}
			if np == 4 {
				hp4 += got.expand + got.fold
			}
		}
		block, err := MakePartition(x, 4, Fine, MethodBlock, 32)
		if err != nil {
			t.Fatal(err)
		}
		be, bf := ModeledCommVolume(x, block, ranks)
		block4 += be + bf
	}
	if hp4 >= block4 {
		t.Errorf("np=4 hypergraph placements send %d expand+fold bytes per sweep over the presets, block placements %d", hp4, block4)
	}
}

// The Gram solver's branches (null directions, the orthogonality repair)
// all run on replicated small matrices after fixed rank-order
// reductions, so World ≡ TCP holds under it bit for bit — including on a
// tensor with a mode smaller than the rank count, where some ranks own
// zero rows of that matricization and enter the collectives with empty
// panels.
func TestGramTransportBitwise(t *testing.T) {
	for _, tc := range []struct {
		name  string
		x     *tensor.COO
		ranks []int
		p     int
	}{
		{"3mode", testTensor3(t), []int{4, 3, 3}, 4},
		{"4mode", testTensor4(t), []int{2, 2, 3, 2}, 2},
		// Mode 2 has 3 rows split across 4 ranks.
		{"zero-row-rank", gen.Random(gen.Config{Dims: []int{25, 20, 3}, NNZ: 600, Skew: 0.4, Seed: 31}), []int{3, 3, 2}, 4},
	} {
		part, err := MakePartition(tc.x, tc.p, Coarse, MethodBlock, 11)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		worldMatchesTCP(t, tc.x, part, Config{Ranks: tc.ranks, MaxIters: 3, Tol: -1, Seed: 17})
	}
}
