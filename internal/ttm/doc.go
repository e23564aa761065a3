// Package ttm implements the tensor-times-matrix-chain (TTMc) kernels
// of the paper (eq. 4 / Algorithm 2): for each mode, the matricized
// tensor is contracted with every other mode's factor matrix, with
// row-parallel owner-computes numeric execution over the symbolic
// update lists so results are bitwise deterministic for any thread
// count and schedule.
//
// One kernel per storage format, all built on the Kronecker row
// kernels:
//
//   - TTMc / Flat — the flat nonzero loop over COO streams, the
//     reference path.
//   - CSFTTMc — fiber-walking kernels over compressed fiber trees;
//     each subtree's contraction is accumulated once and expanded
//     through the parent (~2x fewer madds than flat).
//   - ALTOTTMc — sequential-stream kernels over the linearized format;
//     the key stream is split by recursive halving into a fixed block
//     grid, short modes accumulate into per-thread dense slabs reduced
//     in block order, long modes switch to owner-computes rows.
//
// On top of the per-mode kernels sit DTree, the dimension-tree TTMc
// memoization that caches the partial contractions shared between a
// sweep's N updates (with per-entry dirty invalidation for delta
// ingest via ApplyDelta), core-tensor formation, and a MET-style
// TTM-chain baseline that materializes semi-sparse intermediate
// tensors (the Matlab Tensor Toolbox strategy the paper compares
// against in §V).
package ttm
