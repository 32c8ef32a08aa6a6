"""Sparse solves, prepared once per matrix.

Each matrix swelab solves with is fixed per (mesh, dt, params), so a
``Solver`` decides once how to solve it.  Symmetric matrices get
Jacobi-preconditioned conjugate gradients, on the mean-free subspace when
the nullspace is the constants (the stiffness matrix on a torus).  When the
skew-symmetric part exceeds 1e-12 of max|A|, A = Sym + Skew is solved by
the splitting y <- Sym^-1 (b - Skew y), which converges only while Skew is
small against Sym.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

__all__ = ["SolverError", "Solver"]

_SPLIT_MAX_ITER = 200


class SolverError(RuntimeError):
    """Raised when a solve fails: no convergence, or a matrix that is not definite."""

    def __init__(self, message, residual=None, iterations=None):
        super().__init__(message)
        self.residual = residual
        self.iterations = iterations


class Solver:
    """A x = b for one sparse A whose symmetric part is positive definite,
    or semi-definite with constant nullspace when ``nullspace=True``; then
    iterates are kept mean-free and solutions have zero coefficient mean."""

    def __init__(self, A, nullspace=False):
        A = sp.csr_matrix(A)
        n = A.shape[0]
        if A.shape[1] != n:
            raise ValueError(f"matrix is not square: A is {A.shape}")
        self.n = n
        self.nullspace = nullspace
        d = A - A.T
        if np.abs(d.data).max(initial=0.0) > 1e-12 * max(np.abs(A.data).max(initial=0.0), 1e-300):
            self.sym = (0.5 * (A + A.T)).tocsr()
            self.skew = (0.5 * d).tocsr()
        else:
            self.sym, self.skew = A, None
        diag = self.sym.diagonal()
        ok = diag > 0
        self.inv_diag = np.where(ok, 1.0 / np.where(ok, diag, 1.0), 1.0)

    def solve(self, b, tol=1e-12, x0=None):
        """x with A x = b to relative tol; x0 is an optional initial guess."""
        b = np.asarray(b, dtype=float)
        if b.shape != (self.n,):
            raise ValueError(f"shape mismatch: A is {(self.n, self.n)}, b is {b.shape}")
        if self.skew is None:
            return self._cg(b, tol, x0)
        y = np.zeros(self.n) if x0 is None else x0
        for _ in range(_SPLIT_MAX_ITER):
            y_new = self._cg(b - self.skew @ y, tol, y)
            delta = np.linalg.norm(y_new - y)
            y = y_new
            if delta <= tol * max(np.linalg.norm(y), 1e-300):
                return y
        raise SolverError(
            f"splitting iteration failed to converge in {_SPLIT_MAX_ITER} iterations "
            f"(last update {delta:.3e}, |x| = {np.linalg.norm(y):.3e}): the skew-symmetric part "
            "of the matrix must be small against its symmetric part; reduce dt",
            residual=delta, iterations=_SPLIT_MAX_ITER)

    def _cg(self, b, tol, x0):
        """Jacobi-preconditioned conjugate gradients on the symmetric part."""
        A, inv_diag, n = self.sym, self.inv_diag, self.n
        project = (lambda v: v - v.mean()) if self.nullspace else (lambda v: v)
        b = project(b)
        bnorm = np.linalg.norm(b)
        if bnorm == 0.0:
            return np.zeros(n)

        x = np.zeros(n) if x0 is None else project(np.array(x0, dtype=float))
        r = project(b - A @ x)
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
                    residual=rnorm / bnorm, iterations=k)
            alpha = rz / pAp
            x += alpha * p
            r -= alpha * Ap
            z = project(inv_diag * r)
            rz_new = r @ z
            p = z + (rz_new / rz) * p
            rz = rz_new
        else:
            rel = np.linalg.norm(r) / bnorm
            raise SolverError(
                f"conjugate gradients failed to converge in {max_iter} iterations "
                f"(relative residual {rel:.3e}, tol {tol:.1e})",
                residual=rel, iterations=max_iter)

        x = project(x)
        true_res = np.linalg.norm(project(b - A @ x)) / bnorm
        if true_res > 10.0 * tol:
            raise SolverError(
                f"recurrence drifted from the true residual ({true_res:.3e} vs tol {tol:.1e})",
                residual=true_res)
        return x
