// Package tensor provides the sparse and dense N-mode tensor data
// structures of the paper.
//
// COO — one mode-major int32 index stream per mode plus the value array —
// is the storage the decomposition runs on: what the reader produces,
// what the symbolic and TTMc layers scan, and what deltas merge into.
// SortDedup canonicalizes it (duplicates summed in appearance order,
// exact-zero sums dropped) for any shape; Merge and MergeIndexed ingest
// a coordinate delta with stable storage ids, summing into existing
// positions and appending new coordinates at the tail, for shapes whose
// linearized coordinates fit 128 bits.
//
// CSF (per-root-mode compressed fiber trees) and ALTO (one
// bit-interleaved linearized key per nonzero), with the Sparse interface
// over all three, have no caller in the decomposition: they won no
// measured workload against COO (docs/formats.md) and remain only as the
// layers `go run ./benchmark` builds and times per row, until those
// rows are dropped.
//
// The package also holds the dense tensor with matricization helpers,
// text I/O in the FROSTT-style .tns format, and the slice-size
// statistics driving the partitioners and the experiment harness.
package tensor
