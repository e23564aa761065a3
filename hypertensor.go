// Package hypertensor computes low-rank Tucker decompositions of large
// sparse tensors with the HOOI (Tucker-ALS) algorithm, reproducing the
// parallel algorithms of Kaya & Uçar, "High Performance Parallel
// Algorithms for the Tucker Decomposition of Sparse Tensors" (ICPP
// 2016) — the HyperTensor library.
//
// Two execution models are provided:
//
//   - Decompose runs the shared-memory parallel HOOI (paper
//     Algorithm 3): a one-time symbolic TTMc preprocessing step builds
//     per-mode update lists, numeric TTMc updates rows of the matricized
//     product in parallel without locks, and a truncated SVD chosen by
//     the product's shape (an exact two-pass Gram solver where it is
//     narrow, the paper's matrix-free Lanczos where it is not) extracts
//     each factor's leading singular vectors.
//
//   - DecomposeDistributed runs the distributed-memory HOOI (paper
//     Algorithm 4) over simulated MPI ranks, with coarse-grain (slice)
//     or fine-grain (nonzero) task partitions, hypergraph-partitioned
//     task placement, the row-exchange and y-fold communication schemes
//     of the paper, and per-rank work/communication statistics.
//
// A minimal session:
//
//	x, _ := hypertensor.ReadTensorFile("data.tns")
//	dec, _ := hypertensor.Decompose(x, hypertensor.Options{Ranks: []int{10, 10, 10}})
//	fmt.Println(dec.Fit, dec.Core.Dims)
//
// Everything is implemented on the Go standard library alone: dense
// kernels, truncated SVD solvers, a multilevel hypergraph partitioner,
// and a message-passing runtime live in the internal packages and are
// re-exported here through type aliases where a downstream user needs
// to name them.
package hypertensor

import (
	"fmt"
	"io"

	"context"

	"hypertensor/internal/checkpoint"
	"hypertensor/internal/core"
	"hypertensor/internal/dense"
	"hypertensor/internal/dist"
	"hypertensor/internal/gen"
	"hypertensor/internal/mpi"
	"hypertensor/internal/tensor"
)

// Core data types (aliases keep the internal implementations usable
// under public names).
type (
	// SparseTensor is an N-mode sparse tensor in coordinate format.
	SparseTensor = tensor.COO
	// DenseTensor is a dense N-mode tensor (e.g. the Tucker core).
	DenseTensor = tensor.Dense
	// Matrix is a row-major dense matrix (factor matrices).
	Matrix = dense.Matrix
	// Options configure Decompose; see the field docs in internal/core.
	Options = core.Options
	// Decomposition is a computed Tucker model [[G; U_1..U_N]] with fit,
	// per-phase timings, update accounting, and reconstruction helpers.
	Decomposition = core.Result
	// Plan is the immutable per-tensor analysis (symbolic update lists,
	// strategy choice) any number of Engines can share.
	Plan = core.Plan
	// Engine is a resident decomposition handle: Run converges, Update
	// merges a coordinate delta and re-converges warm.
	Engine = core.Engine
	// SweepState is the Engine's resident per-mode numeric state
	// (factors, TRSVD workspace, seed schedule), in shared memory and on
	// every rank of a distributed world.
	SweepState = core.SweepState
	// SVDMethod names the TRSVD solver a mode ran (Decomposition.SVD):
	// SVDGram or SVDLanczos by the mode's shape, SVDRandomized under
	// Options.Eps.
	SVDMethod = core.SVDMethod
	// TTMcStrategy names the TTMc evaluation path a Plan chose
	// (Decomposition.TTMc): TTMcFlat, or TTMcDTree from order 4 up.
	TTMcStrategy = core.TTMcStrategy
	// Partition is a distributed task assignment (rows and, for fine
	// grain, nonzeros) for P ranks.
	Partition = dist.Partition
	// Grain selects coarse- or fine-grain distributed tasks.
	Grain = dist.Grain
	// PartitionMethod selects hypergraph, random, or block placement.
	PartitionMethod = dist.Method
	// DistConfig configures DecomposeDistributed.
	DistConfig = dist.Config
	// DistDecomposition is the distributed result with per-rank Stats.
	DistDecomposition = dist.Result
	// DistStats carries per-rank work and communication measurements.
	DistStats = dist.Stats
	// World is the message-passing runner abstraction both distributed
	// transports implement: the in-process simulated fabric (NewWorld)
	// and the multi-process TCP mesh (ConnectTCP).
	World = mpi.Runner
	// TCPWorld is one OS process's rank endpoint in a multi-process
	// distributed run, connected to its peers by persistent TCP streams
	// of length-prefixed binary frames.
	TCPWorld = mpi.TCPWorld
	// TCPOptions tune ConnectTCP (dial/receive timeouts, pre-bound
	// listener, frame-size cap).
	TCPOptions = mpi.TCPOptions
	// TransportError is the typed failure of a distributed transport
	// operation; match its cause with errors.Is against the mpi
	// sentinels (e.g. mpi.ErrPeerDied, mpi.ErrTimeout).
	TransportError = mpi.Error
	// CheckpointState is one crash-consistent snapshot of a
	// decomposition in progress: factors, core, sweep counter, fit
	// history, and the deterministic seed schedule. Engines produce one
	// with Snapshot, distributed runs write them at sweep boundaries,
	// and ResumeEngine / DistConfig.CheckpointDir restore them with a
	// bitwise-identical continuation of the fit trajectory.
	CheckpointState = checkpoint.State
	// FaultConfig drives deterministic fault injection on either
	// distributed transport (delays, connection drops, frame corruption,
	// precise rank kills) for recovery testing; `hooi -dist P
	// -chaos-kill-rank R -chaos-kill-sweep S` injects its rank kill.
	FaultConfig = mpi.FaultConfig
)

// Re-exported enum values.
const (
	SVDLanczos    = core.SVDLanczos
	SVDRandomized = core.SVDRandomized
	SVDGram       = core.SVDGram

	TTMcFlat  = core.TTMcFlat
	TTMcDTree = core.TTMcDTree

	CoarseGrain = dist.Coarse
	FineGrain   = dist.Fine

	PartitionHypergraph = dist.MethodHypergraph
	PartitionRandom     = dist.MethodRandom
	PartitionBlock      = dist.MethodBlock
)

// NewSparseTensor returns an empty sparse tensor with the given mode
// sizes; use Append (or AppendChecked) to add nonzeros and SortDedup to
// canonicalize.
func NewSparseTensor(dims []int, capacity int) *SparseTensor {
	return tensor.NewCOO(dims, capacity)
}

// ReadTensorFile loads a tensor in .tns text format (1-based
// coordinates, optional "# dims:" header).
func ReadTensorFile(path string) (*SparseTensor, error) { return tensor.ReadTNSFile(path) }

// WriteTensorFile saves a tensor in .tns text format.
func WriteTensorFile(path string, x *SparseTensor) error { return tensor.WriteTNSFile(path, x) }

// Decompose computes a Tucker decomposition with the shared-memory
// parallel HOOI algorithm, from seeded random orthonormal factors unless
// Options.Initial gives others. From that start one sweep (MaxIters 1)
// is a randomized ST-HOSVD whose sketch is the Kronecker product of the
// other modes' factors — the one-pass Tucker; passing a result's Factors
// as Options.Initial continues from it. It is NewPlan + NewEngine + Run
// with the handle thrown away; long-running callers that want to ingest
// tensor deltas and re-converge incrementally should hold the Engine:
//
//	plan, _ := hypertensor.NewPlan(x, opts)
//	eng := hypertensor.NewEngine(plan)
//	dec, _ := eng.Run(ctx)
//	...                          // new nonzeros arrive
//	dec, _ = eng.Update(delta)   // warm re-convergence, not a cold solve
func Decompose(x *SparseTensor, opts Options) (*Decomposition, error) {
	return core.Decompose(x, opts)
}

// NewPlan performs the one-time per-tensor analysis of a decomposition:
// symbolic update lists, TTMc strategy choice.
// The plan is immutable; build any number of Engines on it.
func NewPlan(x *SparseTensor, opts Options) (*Plan, error) {
	return core.NewPlan(x, opts)
}

// PredictSweepMadds returns the TTMc multiply-adds per sweep the flat
// path and the dimension tree would each execute on x at the given
// ranks — the quantities the Plan's strategy rule stands for. It builds the
// tree's symbolic structure to count its entries.
func PredictSweepMadds(x *SparseTensor, ranks []int, threads int) (flat, tree int64) {
	return core.PredictSweepMadds(x, ranks, threads)
}

// NewEngine builds a resident decomposition handle on a plan. The
// engine owns the mutable state (factors, workspaces, memoized
// dimension-tree partials) and never mutates the plan or the caller's
// tensor — Update clones the tensor lazily before its first merge.
func NewEngine(p *Plan) *Engine { return core.NewEngine(p) }

// ResumeEngine rebuilds a resident engine from a checkpoint stream
// written by Engine.Snapshot (or found via LoadLatestCheckpoint). The
// plan must describe an equivalent problem — same tensor, ranks, and
// seed — which is validated against the checkpoint's recorded norm and
// configuration before any state is adopted. The resumed engine's fit
// trajectory continues bitwise identically to the uninterrupted run.
func ResumeEngine(p *Plan, r io.Reader) (*Engine, error) { return core.ResumeEngine(p, r) }

// ResumeEngineState is ResumeEngine for an already-decoded checkpoint.
func ResumeEngineState(p *Plan, st *CheckpointState) (*Engine, error) {
	return core.ResumeEngineState(p, st)
}

// SaveCheckpoint atomically writes a checkpoint into dir (write to a
// temp file, fsync, rename) and prunes old ones, keeping the two
// newest. It returns the written filename.
func SaveCheckpoint(dir string, st *CheckpointState) (string, error) {
	return checkpoint.Save(dir, st)
}

// LoadLatestCheckpoint returns the newest usable checkpoint in dir and
// its path, skipping torn or corrupt files (the atomic-write discipline
// means at most the newest can be damaged, and only by external
// interference). A dir with no usable checkpoint returns
// checkpoint.ErrNotFound.
func LoadLatestCheckpoint(dir string) (*CheckpointState, string, error) {
	return checkpoint.LoadLatest(dir)
}

// NewPartition builds a task partition of the tensor for p simulated
// ranks: grain picks the task shape (CoarseGrain slices or FineGrain
// nonzeros), method the placement (PartitionHypergraph,
// PartitionRandom, PartitionBlock).
func NewPartition(x *SparseTensor, p int, grain Grain, method PartitionMethod, seed int64) (*Partition, error) {
	return dist.MakePartition(x, p, grain, method, seed)
}

// DecomposeDistributed runs the distributed-memory HOOI over the given
// partition on simulated MPI ranks and returns the assembled
// decomposition with per-rank statistics.
func DecomposeDistributed(x *SparseTensor, part *Partition, cfg DistConfig) (*DistDecomposition, error) {
	return dist.Decompose(x, part, cfg)
}

// NewDistWorld creates the in-process simulated fabric for p ranks —
// the transport DecomposeDistributed uses internally, exposed so
// callers can drive DecomposeDistributedWorld with either transport.
func NewDistWorld(p int) World { return mpi.NewWorld(p) }

// ConnectTCP joins a multi-process distributed world as one rank.
// peers[i] is the host:port rank i listens on; every process of the
// group must call ConnectTCP concurrently with the same peer list and
// its own rank. The returned world runs DecomposeDistributedWorld with
// fit trajectories bitwise identical to the simulated transport at the
// same rank count.
func ConnectTCP(ctx context.Context, rank int, peers []string, opt TCPOptions) (*TCPWorld, error) {
	return mpi.ConnectTCP(ctx, rank, peers, opt)
}

// DecomposeDistributedWorld runs the distributed-memory HOOI over an
// explicit transport: a simulated world (NewDistWorld) computes every
// rank in this process, a TCP world (ConnectTCP) computes this
// process's rank of a multi-process group. The partition and config
// must be identical on every rank. Cancelling ctx aborts a blocked or
// deadlocked world with an error instead of hanging.
func DecomposeDistributedWorld(ctx context.Context, w World, x *SparseTensor, part *Partition, cfg DistConfig) (*DistDecomposition, error) {
	return dist.DecomposeWorld(ctx, w, x, part, cfg)
}

// GeneratePreset synthesizes one of the benchmark datasets modeled on
// the paper's Table I ("netflix", "nell", "delicious", "flickr") or the
// MET-comparison tensor ("random"), at the given scale (1.0 ≈ 1/500 of
// the paper's nonzero count; see internal/gen for the shapes).
func GeneratePreset(name string, scale float64) (*SparseTensor, error) {
	cfg, err := gen.Preset(name, scale)
	if err != nil {
		return nil, err
	}
	return gen.Random(cfg), nil
}

// PaperRanks returns the decomposition ranks the paper uses for a
// tensor of the given order (10 per mode for 3-mode tensors, 5 for
// 4-mode), clamped to the tensor's dimensions by Decompose's validation.
func PaperRanks(order int) []int { return gen.PaperRanks(order) }

// ErrCheckpointNotFound reports that a checkpoint directory holds no
// usable checkpoint — the fresh-start signal, not a failure.
var ErrCheckpointNotFound = checkpoint.ErrNotFound

// ErrCheckpointMismatch reports a checkpoint that decodes cleanly but
// belongs to a different problem or configuration than the one it was
// asked to resume.
var ErrCheckpointMismatch = checkpoint.ErrMismatch

// Version identifies the library release.
const Version = "1.0.0"

// Summary renders a short human-readable summary of a decomposition.
func Summary(d *Decomposition) string {
	if d == nil {
		return "<nil decomposition>"
	}
	return fmt.Sprintf("Tucker core %v, fit %.4f after %d sweeps", d.Core.Dims, d.Fit, d.Iters)
}
