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
	ranks := []int{3, 3, 3}
	cfg := Config{Ranks: ranks, MaxIters: 3, Tol: -1, Seed: 17}

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

	// The default resolves to Gram at these ranks (9 columns for 3
	// vectors); Lanczos is the other solver it can resolve to.
	for _, svd := range []core.SVDMethod{core.SVDAuto, core.SVDLanczos} {
		cfg.SVD = svd
		for _, part := range parts {
			sim := worldMatchesTCP(t, x, part, cfg)
			for n := range sim.Stats.Mode {
				for r, ms := range sim.Stats.Mode[n] {
					if part == idle && r == idle.P-1 && (ms.WTTMc != 0 || ms.WTRSVD != 0) {
						t.Fatalf("mode %d: the idle rank was given work: %+v", n, ms)
					}
					// Two collectives per Gram solve, on every rank, the
					// idle one included; a Lanczos solve enters dozens.
					if gram := svd == core.SVDAuto; gram != (ms.TRSVDMsgs == 2) {
						t.Fatalf("%s svd=%v mode %d rank %d: %d TRSVD collectives per sweep", part.Name(), svd, n, r, ms.TRSVDMsgs)
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

// On an order-4 tensor every rank plans with default options, so the
// TTMc strategy is the plan's choice: the tree on a fine-grain rank,
// the flat kernel on a coarse-grain one (its update lists are
// restricted to owned slices) and on a rank that holds nothing. Either
// way World ≡ TCP, at even and odd world sizes, and the fits agree with
// an all-flat world's to rounding.
func TestDefaultRankPlansOnOrder4(t *testing.T) {
	x := testTensor4(t)
	cfg := Config{Ranks: []int{2, 2, 3, 2}, MaxIters: 3, Tol: -1, Seed: 5}
	var parts []*Partition
	for _, p := range []int{2, 3} {
		for _, g := range []Grain{Fine, Coarse} {
			part, err := MakePartition(x, p, g, MethodHypergraph, 3)
			if err != nil {
				t.Fatal(err)
			}
			parts = append(parts, part)
		}
	}
	parts = append(parts, idleRankPartition(x, 3))
	for _, part := range parts {
		sim := worldMatchesTCP(t, x, part, cfg)
		flat, err := decompose(context.Background(), mpi.NewWorld(part.P), x, part, cfg,
			seam{rankOptions: func(o *core.Options) { o.TTMc = core.TTMcFlat }})
		if err != nil {
			t.Fatal(err)
		}
		for i, fit := range flat.FitHistory {
			if d := math.Abs(sim.FitHistory[i] - fit); !(d <= 1e-10) {
				t.Fatalf("%s sweep %d: default fit %.17g is %.3g off the all-flat world's", part.Name(), i+1, sim.FitHistory[i], d)
			}
		}
		for r, madds := range sim.Stats.TTMcMadds {
			flatMadds := flat.Stats.TTMcMadds[r]
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
// and TRSVD parts, and the number of TRSVD collectives. The bytes are
// functions of the partition and the solver alone, so they are held with
// ==; a change that legitimately moves one edits the literal. The
// Lanczos byte columns were recorded at commit c9e0e6f, when Lanczos was
// the default, and are now taken with SVD pinned to it: that they still
// hold says the Lanczos path is what it was (netflix's Lanczos row was
// taken again when the flat TTMc began factoring runs: on the
// re-associated Y its solves enter 8 fewer collectives per sweep at
// np=2 and 28 more at np=4). The default's rows were
// recorded when SVDAuto arrived (order 3) and when it took order 4 at
// ranks 5 from Lanczos. It resolves every preset to Gram, whose one
// packed triangle of C(C+1)/2 doubles per solve is more payload than the
// few dozen C-vectors a Lanczos solve that converges early reduces at
// this scale (on order 4, 7875 doubles a solve: about 4x Lanczos's TRSVD
// bytes) — and two collectives per solve where Lanczos enters several
// hundred. Summed over the presets, the np=4
// hypergraph placements must also send less expand+fold than block
// placements would (one preset alone may not: netflix's sorted nonzero
// order hands the block placement a smaller cut than the multilevel
// partitioner finds).
func TestRecordedWireBytes(t *testing.T) {
	type cell struct {
		np                       int
		net, expand, fold, trsvd int64 // per sweep, all ranks
		trsvdMsgs                int64 // per sweep, all ranks
	}
	var hp4, block4 int64
	for _, want := range []struct {
		preset        string
		lanczos, dflt [2]cell
	}{
		{"netflix",
			[2]cell{{2, 224341, 7872, 65280, 85844, 1586}, {4, 670320, 23296, 193280, 257708, 3188}},
			[2]cell{{2, 327200, 7872, 65280, 188704, 12}, {4, 978720, 23296, 193280, 566112, 24}}},
		{"nell",
			[2]cell{{2, 445834, 18960, 189600, 125592, 2102}, {4, 1125424, 37600, 376000, 376780, 4204}},
			[2]cell{{2, 567440, 18960, 189600, 247200, 12}, {4, 1490240, 37600, 376000, 741600, 24}}},
		{"delicious",
			[2]cell{{2, 539344, 12720, 318000, 128302, 1322}, {4, 1302912, 26040, 651000, 384908, 2644}},
			[2]cell{{2, 916640, 12720, 318000, 505600, 16}, {4, 2434800, 26040, 651000, 1516800, 32}}},
		{"flickr",
			[2]cell{{2, 452872, 9840, 246000, 137442, 1474}, {4, 1095496, 19400, 485000, 412330, 2948}},
			[2]cell{{2, 821026, 9840, 246000, 505600, 16}, {4, 2199960, 19400, 485000, 1516800, 32}}},
	} {
		cfg, err := gen.Preset(want.preset, 0.2)
		if err != nil {
			t.Fatal(err)
		}
		x := gen.Random(cfg)
		ranks := gen.PaperRanks(x.Order())
		for n := range ranks {
			ranks[n] = min(ranks[n], x.Dims[n])
		}
		for i, np := range []int{2, 4} {
			part, err := MakePartition(x, np, Fine, MethodHypergraph, 32)
			if err != nil {
				t.Fatal(err)
			}
			for _, sv := range []struct {
				svd  core.SVDMethod
				want cell
			}{{core.SVDLanczos, want.lanczos[i]}, {core.SVDAuto, want.dflt[i]}} {
				res := worldMatchesTCP(t, x, part, Config{Ranks: ranks, MaxIters: 3, Tol: -1, Seed: 32, SVD: sv.svd})
				got := cell{np: np, net: res.Stats.TotalSentBytes() / int64(res.Iters)}
				for n := range res.Stats.Mode {
					for _, ms := range res.Stats.Mode[n] {
						got.expand += ms.ExpandBytes
						got.fold += ms.FoldBytes
						got.trsvd += ms.TRSVDBytes
						got.trsvdMsgs += ms.TRSVDMsgs
					}
				}
				if got != sv.want {
					t.Errorf("%s svd=%v: {np net expand fold trsvd trsvdMsgs} per sweep %v, recorded %v", want.preset, sv.svd, got, sv.want)
				}
				// At the paper's ranks the default solves every mode of an
				// order-3 tensor by Gram, and a Gram solve enters at most
				// three collectives on a rank.
				if solves := int64(x.Order() * np); sv.svd == core.SVDAuto && x.Order() == 3 && got.trsvdMsgs > 3*solves {
					t.Errorf("%s np=%d: %d TRSVD collectives per sweep for %d Gram solves", want.preset, np, got.trsvdMsgs, solves)
				}
				if np == 4 && sv.svd == core.SVDAuto {
					hp4 += got.expand + got.fold
				}
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
