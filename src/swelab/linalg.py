"""Sparse SPD solves.

The solver is Jacobi-preconditioned conjugate gradients with an explicit
symmetry gate and an optional constant-nullspace projection, so that the
same routine serves both the definite mass-type systems and the stiffness
systems that are singular on a torus.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

__all__ = ["SolverError", "solve_spd"]


class SolverError(RuntimeError):
    """Raised when a solve fails: no convergence, or a matrix that is not definite."""

    def __init__(self, message, residual=None, iterations=None):
        super().__init__(message)
        self.residual = residual
        self.iterations = iterations


def _check_symmetry(A):
    d = A - A.T
    nd = np.abs(d.data).max() if d.nnz else 0.0
    na = np.abs(A.data).max() if A.nnz else 0.0
    if nd > 1e-12 * max(na, 1e-300):
        raise ValueError(
            f"matrix is not symmetric: |A - A^T| = {nd:.3e} vs |A| = {na:.3e}"
        )


def solve_spd(A, b, tol=1e-12, nullspace=False, x0=None):
    """Solve A x = b for symmetric positive (semi-)definite sparse A.

    tol is relative to |b|.  With nullspace=True the matrix is taken to be
    singular with constant nullspace: the right-hand side and all iterates
    are kept mean-free, and the returned solution has zero coefficient mean.
    """
    A = sp.csr_matrix(A)
    n = A.shape[0]
    if A.shape[1] != n or b.shape != (n,):
        raise ValueError(f"shape mismatch: A is {A.shape}, b is {b.shape}")
    _check_symmetry(A)

    b = np.asarray(b, dtype=float)

    def project(v):
        return v - v.mean() if nullspace else v

    b = project(b)
    bnorm = np.linalg.norm(b)
    if bnorm == 0.0:
        return np.zeros(n)

    diag = A.diagonal().copy()
    ok = diag > 0
    inv_diag = np.where(ok, 1.0 / np.where(ok, diag, 1.0), 1.0)

    x = np.zeros(n) if x0 is None else project(np.asarray(x0, dtype=float).copy())
    r = b - A @ x if x0 is not None else b.copy()
    r = project(r)
    z = project(inv_diag * r)
    p = z.copy()
    rz = r @ z
    max_iter = max(50, 10 * n)
    target = tol * bnorm

    for k in range(max_iter):
        rnorm = np.linalg.norm(r)
        if rnorm <= target:
            break
        Ap = project(A @ p)
        pAp = p @ Ap
        if pAp <= 0.0:
            raise SolverError(
                f"matrix not positive definite on the active subspace (p^T A p = {pAp:.3e})",
                residual=rnorm / bnorm,
                iterations=k,
            )
        alpha = rz / pAp
        x += alpha * p
        r -= alpha * Ap
        z = project(inv_diag * r)
        rz_new = r @ z
        p = z + (rz_new / rz) * p
        rz = rz_new
    else:
        raise SolverError(
            f"conjugate gradients failed to converge in {max_iter} iterations "
            f"(relative residual {np.linalg.norm(r) / bnorm:.3e}, tol {tol:.1e})",
            residual=np.linalg.norm(r) / bnorm,
            iterations=max_iter,
        )

    x = project(x)
    true_res = np.linalg.norm(project(b - A @ x)) / bnorm
    if true_res > 10.0 * tol:
        raise SolverError(
            f"recurrence drifted from the true residual ({true_res:.3e} vs tol {tol:.1e})",
            residual=true_res,
        )
    return x
