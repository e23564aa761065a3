// Package trsvd computes a few leading singular triplets of a large
// dense (possibly distributed) matrix through a matrix-free operator
// interface, standing in for the PETSc+SLEPc solvers the paper links
// against (§III.A.2, §III.B).
//
// Two production solvers share the driver interface:
//
//   - Golub–Kahan–Lanczos bidiagonalization with full
//     reorthogonalization and warm starts (Options.WarmLeft) for the
//     resident engine's re-convergence sweeps;
//   - a randomized sketch solver (CholeskyQR2-whitened range finder,
//     adaptive Ritz-converged power rounds, and a streaming
//     single-pass variant for the update path), plus EpsRankSelect,
//     the adaptive rank-selection rule behind Options.Eps.
//
// An explicit Gram-matrix solver survives in the tests as the oracle
// both are compared against. All access to the matrix goes
// through MatVec (y = Ax) and MatTVec (x = Aᵀy), so the same driver
// runs on local rows, on the coarse-grain row-distributed Y_(n), and
// on the fine-grain sum-distributed Y_(n), whose operators implement
// the paper's y-fold / x-allreduce communication scheme. Solver
// workspaces are reusable across sweeps and allocation-free in steady
// state.
package trsvd
