// Package ttm implements the tensor-times-matrix-chain (TTMc) kernels
// of the paper (eq. 4 / Algorithm 2): for each mode, the matricized
// tensor is contracted with every other mode's factor matrix, with
// row-parallel owner-computes numeric execution over the symbolic
// update lists so results are bitwise deterministic for any thread
// count.
//
// The decomposition runs one of two kernels, both built on the
// Kronecker row kernels:
//
//   - TTMc / Flat — the flat nonzero loop over COO streams and the
//     per-mode update lists, the paper's Algorithm 3 and the reference
//     path, with the leading contracted mode factored out of each run
//     of neighbouring nonzeros that share its index, reading the other
//     modes' indices as list-order streams (symbolic.Mode.Streams).
//   - DTree — the dimension-tree memoization that caches the partial
//     contractions shared between a sweep's N updates; the default
//     from order 4 up.
//
// CSFTTMc (fiber-walking kernels over compressed fiber trees) and
// ALTOTTMc (sequential-stream kernels over the linearized format) have
// no caller in the decomposition: they won no measured workload against
// what runs by default (docs/formats.md) and remain only as the layers
// `go run ./benchmark` times per row, until those rows are dropped.
//
// Also here: core-tensor formation, and a MET-style TTM-chain baseline
// (ChainTTMc) that materializes semi-sparse intermediate tensors
// (SemiSparse, which serves nothing else) — the Matlab Tensor Toolbox
// strategy the paper compares against in §V.
package ttm
