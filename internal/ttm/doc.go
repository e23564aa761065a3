// Package ttm implements the tensor-times-matrix-chain (TTMc) kernels
// of the paper (eq. 4 / Algorithm 2): for each mode, the matricized
// tensor is contracted with every other mode's factor matrix, with
// row-parallel owner-computes numeric execution over the symbolic
// update lists so results are bitwise deterministic for any thread
// count.
//
// The decomposition runs one kernel, DTree, in one of two shapes fixed
// when it is built:
//
//   - Star (BuildFlat, and TTMc for one mode) — the root's children are
//     the N leaves, each computed from the nonzeros over its mode's
//     update lists: the paper's Algorithm 3, the reference path.
//   - Binary (BuildDTree) — the dimension tree, whose internal nodes
//     memoize the partial contractions shared between a sweep's N
//     updates; the default from order 4 up.
//
// Either way the root's children run one loop: over each entry's list
// positions, reading the modes the child drops as index streams in its
// group order (symbolic.Gather), the first dropped mode factored out of
// every run of neighbouring nonzeros that share its index — with one
// mode trailing it, an entry is one dense.GatherGer call.
//
// CSFTTMc (fiber-walking kernels over compressed fiber trees) and
// ALTOTTMc (sequential-stream kernels over the linearized format) have
// no caller in the decomposition: they won no measured workload against
// what runs by default (docs/formats.md) and remain only as the layers
// `go run ./benchmark` times per row, until those rows are dropped.
//
// Also here: core-tensor formation. The Matlab Tensor Toolbox strategy
// the paper compares against in §V — a TTM chain through semi-sparse
// intermediates — lives in the tests, as the kernels' oracle and as
// BenchmarkChainVsFlat.
package ttm
