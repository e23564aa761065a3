// Package trsvd computes a few leading singular triplets of a large
// dense (possibly distributed) matrix through a matrix-free operator
// interface, standing in for the PETSc+SLEPc solvers the paper links
// against (§III.A.2, §III.B).
//
// Three production solvers share the driver interface:
//
//   - the exact Gram-eigen solver for narrow matrices (Gram): the
//     Cols x Cols Gram matrix in one symmetric rank-k pass, its
//     eigenvectors by a serial tridiagonal eigensolver, the left
//     vectors in one block pass (Operator.Gram, Operator.MatMat);
//   - Golub–Kahan–Lanczos bidiagonalization with full
//     reorthogonalization, started from a seeded pseudo-random vector;
//   - a randomized sketch solver (Gaussian sketch, CholeskyQR2-whitened
//     range finder, adaptive Ritz-converged power rounds), plus
//     EpsRankSelect, the adaptive rank-selection rule behind core's
//     Options.Eps.
//
// Options carries only what differs per call (seed, workspace); every
// numerical setting is a constant of the solver that reads it, and no
// solve reads what an earlier one computed, so a result is a function
// of the operator, k and the seed alone.
//
// An unblocked Gram-matrix solver on the Jacobi SVD survives in the
// tests as the oracle all three are compared against. Every solver
// reaches the matrix only through the one Operator interface — Lanczos
// through MatVec (y = Ax) and MatTVec (x = Aᵀy), the randomized solver
// through their panel forms MatMat and MatTMat, Gram through Gram and
// MatMat — so the same driver runs on local rows and on the
// row-distributed Y_(n), whose operator implements the paper's
// x-allreduce communication scheme: one reduction per MatTVec, per
// MatTMat panel, per RowGram and per Gram. Solver
// workspaces are reusable across sweeps and allocation-free in steady
// state.
package trsvd
