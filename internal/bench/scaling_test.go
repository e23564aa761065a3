package bench

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
)

func TestScalingReport(t *testing.T) {
	var buf bytes.Buffer
	o := quickOpts()
	o.Reps = 1
	rep, err := Scaling(o, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 4 {
		t.Fatalf("%d dataset rows", len(rep.Rows))
	}
	for _, row := range rep.Rows {
		if len(row.Cells) != len(o.Threads) {
			t.Fatalf("%s: %d cells for %d thread counts", row.Dataset, len(row.Cells), len(o.Threads))
		}
		if row.MaddsPerSweep <= 0 || row.IndexBytes <= 0 {
			t.Fatalf("%s: nonpositive machine-independent metrics", row.Dataset)
		}
		if row.AllocsPerSweep <= 0 {
			t.Fatalf("%s: steady-state allocs/sweep not measured", row.Dataset)
		}
		if !row.FitInvariant {
			t.Fatalf("%s: fit not bitwise invariant across the thread sweep", row.Dataset)
		}
		for _, cell := range row.Cells {
			if cell.SweepSec <= 0 {
				t.Fatalf("%s @%d threads: nonpositive sweep time", row.Dataset, cell.Threads)
			}
			if cell.TRSVDSec <= 0 || cell.TRSVDSec >= cell.SweepSec {
				t.Fatalf("%s @%d threads: TRSVD share %v outside (0, sweep)", row.Dataset, cell.Threads, cell.TRSVDSec)
			}
		}
		if len(row.Dist) != len(distNPs) {
			t.Fatalf("%s: %d multi-process cells for %d rank counts", row.Dataset, len(row.Dist), len(distNPs))
		}
		for i, dc := range row.Dist {
			if dc.NP != distNPs[i] || dc.NetBytesPerSweep <= 0 || dc.SweepSec <= 0 {
				t.Fatalf("%s np=%d: malformed multi-process cell %+v", row.Dataset, distNPs[i], dc)
			}
			if dc.ExpandBytesPerSweep <= 0 || dc.TRSVDBytesPerSweep <= 0 || dc.BlockExpandFoldBytes <= 0 {
				t.Fatalf("%s np=%d: per-phase breakdown not measured %+v", row.Dataset, distNPs[i], dc)
			}
			if sum := dc.ExpandBytesPerSweep + dc.FoldBytesPerSweep + dc.TRSVDBytesPerSweep; sum > dc.NetBytesPerSweep {
				t.Fatalf("%s np=%d: phase bytes %d exceed total %d", row.Dataset, distNPs[i], sum, dc.NetBytesPerSweep)
			}
		}
		if row.Checkpoint == nil || row.Checkpoint.Bytes <= 0 ||
			row.Checkpoint.WriteSec <= 0 || row.Checkpoint.RestoreSec <= 0 {
			t.Fatalf("%s: malformed checkpoint cell %+v", row.Dataset, row.Checkpoint)
		}
	}
	if !strings.Contains(buf.String(), "Thread scaling") {
		t.Fatal("table output missing title")
	}
}

func TestScalingJSONRoundTrip(t *testing.T) {
	o := quickOpts()
	o.Reps = 1
	rep, err := Scaling(o, &bytes.Buffer{})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "scaling.json")
	if err := rep.WriteJSON(path); err != nil {
		t.Fatal(err)
	}
	got, err := ReadScalingReport(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Schema != rep.Schema || len(got.Rows) != len(rep.Rows) ||
		got.Rows[0].MaddsPerSweep != rep.Rows[0].MaddsPerSweep {
		t.Fatal("JSON round trip lost data")
	}
	// A fresh run against its own serialized self must pass the gate.
	var buf bytes.Buffer
	if err := CompareScaling(got, rep, 0.10, 0.10, &buf); err != nil {
		t.Fatalf("self-comparison regressed: %v", err)
	}
}

func scalingFixture() *ScalingReport {
	return &ScalingReport{
		Schema: scalingSchema, Host: "test/amd64/maxprocs=8", GOMAXPROCS: 8,
		Scale: 1, Iters: 3,
		Rows: []ScalingRow{{
			Dataset: "netflix", Order: 3, NNZ: 1000,
			MaddsPerSweep: 1000000, IndexBytes: 5000, AllocsPerSweep: 100,
			Fit: 0.9, FitInvariant: true,
			Cells: []ScalingCell{
				{Threads: 1, SweepSec: 1.0, TTMcSec: 0.5, TRSVDSec: 0.4, Speedup: 1},
				{Threads: 8, SweepSec: 0.25, TTMcSec: 0.12, TRSVDSec: 0.1, Speedup: 4},
			},
			Dist: []DistCell{
				{NP: 2, NetBytesPerSweep: 50000, ExpandBytesPerSweep: 10000, FoldBytesPerSweep: 15000,
					TRSVDBytesPerSweep: 20000, BlockExpandFoldBytes: 60000, SweepSec: 0.8},
				{NP: 4, NetBytesPerSweep: 90000, ExpandBytesPerSweep: 20000, FoldBytesPerSweep: 25000,
					TRSVDBytesPerSweep: 40000, BlockExpandFoldBytes: 110000, SweepSec: 0.6},
			},
			Checkpoint: &CheckpointCell{Bytes: 40000, WriteSec: 0.2, RestoreSec: 0.3},
		}},
	}
}

func TestCompareScalingGates(t *testing.T) {
	var buf bytes.Buffer
	base := scalingFixture()

	ok := scalingFixture()
	if err := CompareScaling(base, ok, 0.10, 0.10, &buf); err != nil {
		t.Fatalf("identical reports flagged: %v", err)
	}

	madds := scalingFixture()
	madds.Rows[0].MaddsPerSweep = 1200000 // +20%
	if err := CompareScaling(base, madds, 0.10, 0.10, &buf); err == nil ||
		!strings.Contains(err.Error(), "madds") {
		t.Fatalf("madds regression not caught: %v", err)
	}

	bytesUp := scalingFixture()
	bytesUp.Rows[0].IndexBytes = 6000 // +20%
	if err := CompareScaling(base, bytesUp, 0.10, 0.10, &buf); err == nil ||
		!strings.Contains(err.Error(), "index bytes") {
		t.Fatalf("index-bytes regression not caught: %v", err)
	}

	slow := scalingFixture()
	slow.Rows[0].Cells[1].SweepSec = 0.30 // +20% at 8 threads, above the noise floor
	if err := CompareScaling(base, slow, 0.10, 0.10, &buf); err == nil ||
		!strings.Contains(err.Error(), "sweep time") {
		t.Fatalf("time regression not caught: %v", err)
	}

	// A large fractional but tiny absolute drift (sub-floor) is
	// scheduler noise, not a regression.
	tinyBase := scalingFixture()
	tinyBase.Rows[0].Cells[1].SweepSec = 0.050
	jitter := scalingFixture()
	jitter.Rows[0].Cells[1].SweepSec = 0.060 // +20% but only +10ms
	if err := CompareScaling(tinyBase, jitter, 0.10, 0.10, &buf); err != nil {
		t.Fatalf("sub-noise-floor drift flagged: %v", err)
	}

	// The wall-clock gate must not fire across different hosts, and the
	// skip must be reported.
	buf.Reset()
	slow.Host = "other/arm64/maxprocs=2"
	if err := CompareScaling(base, slow, 0.10, 0.10, &buf); err != nil {
		t.Fatalf("cross-host time gate fired: %v", err)
	}
	if !strings.Contains(buf.String(), "wall-clock gate skipped") {
		t.Fatal("cross-host skip not reported")
	}

	allocsUp := scalingFixture()
	allocsUp.Rows[0].AllocsPerSweep = 600 // +500, past 10% + the 64-alloc slack
	if err := CompareScaling(base, allocsUp, 0.10, 0.10, &buf); err == nil ||
		!strings.Contains(err.Error(), "allocs/sweep") {
		t.Fatalf("alloc regression not caught: %v", err)
	}

	// Pool-refill jitter within the absolute slack is not a regression.
	allocsJitter := scalingFixture()
	allocsJitter.Rows[0].AllocsPerSweep = 160 // +60%: over tol but within +64
	if err := CompareScaling(base, allocsJitter, 0.10, 0.10, &buf); err != nil {
		t.Fatalf("sub-slack alloc drift flagged: %v", err)
	}

	allocsGone := scalingFixture()
	allocsGone.Rows[0].AllocsPerSweep = 0 // metric no longer measured
	if err := CompareScaling(base, allocsGone, 0.10, 0.10, &buf); err == nil ||
		!strings.Contains(err.Error(), "allocs/sweep") {
		t.Fatalf("unmeasured alloc metric not caught: %v", err)
	}

	nondet := scalingFixture()
	nondet.Rows[0].FitInvariant = false
	if err := CompareScaling(base, nondet, 0.10, 0.10, &buf); err == nil ||
		!strings.Contains(err.Error(), "invariant") {
		t.Fatalf("determinism regression not caught: %v", err)
	}

	netUp := scalingFixture()
	netUp.Rows[0].Dist[1].NetBytesPerSweep = 120000 // +33% at np=4
	if err := CompareScaling(base, netUp, 0.10, 0.10, &buf); err == nil ||
		!strings.Contains(err.Error(), "net bytes") {
		t.Fatalf("network-volume regression not caught: %v", err)
	}

	distSlow := scalingFixture()
	distSlow.Rows[0].Dist[0].SweepSec = 1.0 // +25% at np=2, above the noise floor
	if err := CompareScaling(base, distSlow, 0.10, 0.10, &buf); err == nil ||
		!strings.Contains(err.Error(), "np=2 sweep time") {
		t.Fatalf("multi-process time regression not caught: %v", err)
	}
	// ...but not across hosts.
	distSlow.Host = "other/arm64/maxprocs=2"
	if err := CompareScaling(base, distSlow, 0.10, 0.10, &buf); err != nil {
		t.Fatalf("cross-host multi-process time gate fired: %v", err)
	}

	// The loopback mesh oversubscribes the host, so fractionally large
	// but sub-floor wall-clock drift on a multi-process cell is jitter,
	// not a regression (the deterministic net-bytes gate carries the
	// signal at this scale).
	distBase := scalingFixture()
	distBase.Rows[0].Dist[0].SweepSec = 0.20
	distJitter := scalingFixture()
	distJitter.Rows[0].Dist[0].SweepSec = 0.26 // +30% but only +60ms
	if err := CompareScaling(distBase, distJitter, 0.10, 0.10, &buf); err != nil {
		t.Fatalf("sub-floor multi-process drift flagged: %v", err)
	}

	distGone := scalingFixture()
	distGone.Rows[0].Dist = distGone.Rows[0].Dist[:1] // dropped np=4
	if err := CompareScaling(base, distGone, 0.10, 0.10, &buf); err == nil ||
		!strings.Contains(err.Error(), "np=4 multi-process cell") {
		t.Fatalf("missing multi-process cell not caught: %v", err)
	}

	// The HP-beats-block gate: the hypergraph partition's realized
	// expand+fold payload must stay strictly below the block placement's
	// cut volume at np=4.
	hpLoses := scalingFixture()
	hpLoses.Rows[0].Dist[1].ExpandBytesPerSweep = 90000 // 90k+25k >= 110k block
	if err := CompareScaling(base, hpLoses, 0.10, 0.10, &buf); err == nil ||
		!strings.Contains(err.Error(), "not below block") {
		t.Fatalf("HP-beats-block violation not caught: %v", err)
	}
	noBlock := scalingFixture()
	noBlock.Rows[0].Dist[1].BlockExpandFoldBytes = 0 // pre-schema-8 report
	if err := CompareScaling(base, noBlock, 0.10, 0.10, &buf); err == nil ||
		!strings.Contains(err.Error(), "block-placement comm volume") {
		t.Fatalf("missing block comm volume not caught: %v", err)
	}

	ckptUp := scalingFixture()
	ckptUp.Rows[0].Checkpoint.Bytes = 50000 // +25%
	if err := CompareScaling(base, ckptUp, 0.10, 0.10, &buf); err == nil ||
		!strings.Contains(err.Error(), "checkpoint bytes") {
		t.Fatalf("checkpoint-bytes regression not caught: %v", err)
	}

	ckptSlow := scalingFixture()
	ckptSlow.Rows[0].Checkpoint.RestoreSec = 0.40 // +33%, above the noise floor
	if err := CompareScaling(base, ckptSlow, 0.10, 0.10, &buf); err == nil ||
		!strings.Contains(err.Error(), "checkpoint restore time") {
		t.Fatalf("checkpoint restore-time regression not caught: %v", err)
	}
	// ...but not across hosts: the byte gate still applies, the time gate
	// does not.
	ckptSlow.Host = "other/arm64/maxprocs=2"
	if err := CompareScaling(base, ckptSlow, 0.10, 0.10, &buf); err != nil {
		t.Fatalf("cross-host checkpoint time gate fired: %v", err)
	}

	ckptGone := scalingFixture()
	ckptGone.Rows[0].Checkpoint = nil
	if err := CompareScaling(base, ckptGone, 0.10, 0.10, &buf); err == nil ||
		!strings.Contains(err.Error(), "checkpoint cell") {
		t.Fatalf("missing checkpoint cell not caught: %v", err)
	}

	fewer := scalingFixture()
	fewer.Rows[0].Cells = fewer.Rows[0].Cells[:1] // dropped the 8-thread cell
	if err := CompareScaling(base, fewer, 0.10, 0.10, &buf); err == nil ||
		!strings.Contains(err.Error(), "8-thread cell") {
		t.Fatalf("missing thread cell not caught: %v", err)
	}

	missing := scalingFixture()
	missing.Rows = nil
	if err := CompareScaling(base, missing, 0.10, 0.10, &buf); err == nil ||
		!strings.Contains(err.Error(), "missing") {
		t.Fatalf("missing dataset not caught: %v", err)
	}

	mismatch := scalingFixture()
	mismatch.Scale = 2
	if err := CompareScaling(base, mismatch, 0.10, 0.10, &buf); err == nil ||
		!strings.Contains(err.Error(), "config") {
		t.Fatalf("config mismatch not caught: %v", err)
	}
}

// The committed CI baseline must stay loadable and structurally sound —
// a malformed baseline would green-light every regression.
func TestCommittedBaselineParses(t *testing.T) {
	rep, err := ReadScalingReport(filepath.Join("testdata", "scaling_baseline.json"))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Schema != scalingSchema {
		t.Fatalf("baseline schema %d, code expects %d", rep.Schema, scalingSchema)
	}
	if len(rep.Rows) != 4 {
		t.Fatalf("baseline has %d dataset rows", len(rep.Rows))
	}
	for _, row := range rep.Rows {
		if row.MaddsPerSweep <= 0 || row.AllocsPerSweep <= 0 || len(row.Cells) == 0 || !row.FitInvariant {
			t.Fatalf("baseline row %s malformed", row.Dataset)
		}
		if len(row.Dist) != len(distNPs) {
			t.Fatalf("baseline row %s has %d multi-process cells, want %d", row.Dataset, len(row.Dist), len(distNPs))
		}
		if row.Checkpoint == nil || row.Checkpoint.Bytes <= 0 {
			t.Fatalf("baseline row %s missing the checkpoint cell", row.Dataset)
		}
	}
}
