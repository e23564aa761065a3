// Package core implements the HOOI algorithm of the paper (Algorithm 1
// / Algorithm 3): the alternating least squares sweep that, for each
// mode, computes the TTMc product with all other factor matrices,
// extracts the leading left singular vectors of the matricized result
// (TRSVD), and finally forms the core tensor and the fit measure. The
// sweep loop, Engine.converge, has no distributed twin: the paper's
// Algorithm 4 is the same loop run on every rank through an
// Exchange (fold, row-distributed operator, expand, core reduction,
// factor replication), of which shared memory is the one-rank case.
// Adaptive rank selection by a per-value spectral threshold
// (Options.Eps) is included. Every decomposition starts from the seeded random factors
// of InitialFactors (or from Options.Initial); from them the first sweep
// is itself a randomized ST-HOSVD, so there is no separate initializer.
//
// The API splits the paper's symbolic/numeric separation into two
// objects (see docs/architecture.md):
//
//   - Plan is the immutable per-tensor analysis: option validation, the
//     TTMc strategy resolved, and the per-mode symbolic update lists
//     over the coordinate tensor. A Plan is a pure function of (tensor,
//     options).
//   - Engine holds the resident mutable state — factors, TRSVD
//     workspaces, the TTMc kernel the plan resolved to (the flat kernel
//     or the dimension tree with its memoized partials), and an
//     engine-owned copy of the evolving tensor once deltas arrive. Run
//     converges from the current factors; Update merges a coordinate
//     delta into the tensor, splices the flat kernel's update lists or
//     builds the tree anew, and re-converges from the current factors.
//     The factors carry one sweep into the next, as in the paper's
//     Algorithm 1: every TRSVD solves that sweep's Y_(n) from its seed
//     alone.
//
// Decompose is the batch convenience: NewPlan + NewEngine + Run. All
// paths are bitwise deterministic across thread counts.
package core
