// Command hooi computes the Tucker decomposition of a sparse tensor in
// .tns format with the HOOI algorithm, in shared-memory mode, on
// simulated distributed ranks, or across real OS processes connected by
// TCP.
//
// Examples:
//
//	hooi -input x.tns -ranks 10,10,10 -iters 20 -tol 1e-5
//	hooi -input x.tns -eps 0.25
//	hooi -input x.tns -ranks 10,10,10 -update delta.tns
//	hooi -input x.tns -ranks 5,5,5,5 -dist 16 -grain fine -method hp
//	hooi -input x.tns -ranks 5,5,5 -dist spawn -np 4
//	hooi -input x.tns -ranks 5,5,5 -dist tcp -rank 0 -peers h0:9000,h1:9000
//	hooi -input x.tns -ranks 10,10,10 -iters 1 -tol -1
//
// Every run starts from seeded random orthonormal factors, and its first
// sweep is a randomized ST-HOSVD whose sketch of each mode is the
// Kronecker product of the other modes' factors: -iters 1 (or 2) is the
// cheap one-pass Tucker, and -eps picks the ranks adaptively.
//
// -dist spawn runs this command line again as -np rank processes on
// this machine, each with its own -rank and the -peers list appended
// (binding their loopback ports first, so the launch is race-free), and
// restarts the group from -checkpoint when one dies (-chaos-kill R@S
// kills one for a drill); -dist tcp joins an externally launched
// process group as one rank, where every process must be started with
// the same -peers list and its own -rank. Both run the same collective
// algorithms as the simulated transport, so fit trajectories are
// bitwise identical at equal rank counts.
//
// With -update the tool converges once, then ingests the delta
// tensor(s) through the resident engine and reports, per update, the
// sweeps to re-converge and the TTMc madds executed per sweep against
// the recompute-everything flat-sweep cost, and finally |Δfit| against a
// from-scratch solve of the fully merged tensor.
package main

import (
	"os"

	"hypertensor/internal/cli"
)

func main() {
	os.Exit(cli.Hooi(os.Args, os.Stdout, os.Stderr))
}
