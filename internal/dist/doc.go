// Package dist implements the distributed-memory parallel HOOI of the
// paper (Algorithm 4) over the internal/mpi collective API, which runs
// on either transport: simulated ranks (goroutines connected by
// channels, the default) or one OS process per rank over a TCP mesh.
// Fit trajectories are bitwise identical between the two transports at
// equal rank counts.
//
// Tasks are partitioned either coarse-grain (one task per tensor
// slice, partitioned per mode) or fine-grain (one task per nonzero),
// with placement by the multilevel hypergraph partitioner, at random,
// or in contiguous blocks — the fine-hp / fine-rd / coarse-hp /
// coarse-bl configurations of the paper's evaluation.
//
// Algorithm 4 is Algorithm 3 with a fold after the TTMc and an expand
// after the TRSVD, so there is no second sweep loop here. Each rank
// stores only its local nonzeros, builds its point-to-point
// communication plans (exchange) and an ordinary core.Plan over those
// nonzeros, and runs core.Engine.converge with the plans as its
// core.Exchange: partial TTMc rows fold to the slice owners, the TRSVD
// runs row-distributed in SPMD lockstep (the column-space vectors are
// replicated through deterministic AllReduce, so every rank observes
// bitwise-identical iterates), and the updated factor rows travel to
// exactly the ranks whose nonzeros reference them. Per-rank work and
// communication statistics (allgathered so every rank holds all of
// them) back the Table II-IV reproductions.
package dist
