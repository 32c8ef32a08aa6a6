"""Sparse solves, prepared once per matrix.

Each matrix swelab solves with is fixed per (mesh, dt, params), so a
``Solver`` prepares it once.  Every matrix here is A = Sym + Skew with Sym
positive definite (on the mean-free subspace when the nullspace is the
constants, as for the stiffness matrix on a torus), and every solve runs
the Concus-Golub-Widlund generalized conjugate gradient method: the
three-term recurrence

    x_{k+1} = x_{k-1} + w_{k+1} (z_k + x_k - x_{k-1}),   Sym z_k = r_k,

with w_1 = 1 and w_{k+1} = 1 / (1 + rho_k / (rho_{k-1} w_k)), rho_k = z_k . r_k
(P. Concus & G. H. Golub 1976; O. Widlund, SIAM J. Numer. Anal. 15, 1978).
It converges for a skew part of any size.  The inner solves with Sym are
Jacobi-preconditioned conjugate gradients; when A is symmetric, Sym is A
and the first step solves the system.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

__all__ = ["SolverError", "Solver"]


class SolverError(RuntimeError):
    """Raised when a solve fails: no convergence, a residual that is not finite,
    or a symmetric part that is not definite."""

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
        self.A = A
        self.n = n
        self.max_iter = max(50, 10 * n)
        self._project = (lambda v: v - v.mean()) if nullspace else (lambda v: v)
        skew = np.abs((A - A.T).data).max(initial=0.0)
        if skew > 1e-12 * max(np.abs(A.data).max(initial=0.0), 1e-300):
            self.sym = (0.5 * (A + A.T)).tocsr()
        else:
            self.sym = A
        diag = self.sym.diagonal()
        ok = diag > 0
        self.inv_diag = np.where(ok, 1.0 / np.where(ok, diag, 1.0), 1.0)

    def solve(self, b, tol=1e-12, x0=None):
        """x with |b - A x| <= tol |b|; x0 is an optional initial guess."""
        b = np.asarray(b, dtype=float)
        if b.shape != (self.n,):
            raise ValueError(f"shape mismatch: A is {(self.n, self.n)}, b is {b.shape}")
        if not np.isfinite(b).all():
            raise SolverError("right-hand side is not finite", iterations=0)
        b = self._project(b)
        bnorm = np.linalg.norm(b)
        if bnorm == 0.0:
            return np.zeros(self.n)
        x = np.zeros(self.n) if x0 is None else self._project(np.array(x0, dtype=float))
        x_prev, target = x, tol * bnorm
        for k in range(self.max_iter):
            r = self._project(b - self.A @ x)
            rnorm = np.linalg.norm(r)
            if not np.isfinite(rnorm):
                raise SolverError(
                    f"residual is not finite after {k} iterations (|r| = {rnorm}, |b| = {bnorm})",
                    residual=rnorm, iterations=k)
            if rnorm <= target:
                return x
            # inner target 0.1 tol |b|, below the outer one so that one step
            # finishes a symmetric solve; relative to |r| clipped to [tol, 0.1]
            z =self._cg(r, min(max(0.1 * target / rnorm, tol), 0.1))
            rho = z @ r
            omega = 1.0 if k == 0 else 1.0 / (1.0 + rho / (rho_prev * omega))
            x, x_prev = x_prev + omega * (z + x - x_prev), x
            rho_prev = rho
        raise SolverError(
            f"generalized conjugate gradients failed to converge in {self.max_iter} "
            f"iterations (relative residual {rnorm / bnorm:.3e}, tol {tol:.1e})",
            residual=rnorm / bnorm, iterations=self.max_iter)

    def _cg(self, r, tol):
        """z with |r - Sym z| <= tol |r| by Jacobi-preconditioned conjugate gradients."""
        A, inv_diag, project = self.sym, self.inv_diag, self._project
        z = np.zeros(self.n)
        r = r.copy()
        s = project(inv_diag * r)
        p = s.copy()
        rs = r @ s
        r0 = np.linalg.norm(r)
        for k in range(self.max_iter):
            rel = np.linalg.norm(r) / r0
            if rel <= tol:
                return project(z)
            Ap = project(A @ p)
            pAp = p @ Ap
            if pAp <= 0.0:
                raise SolverError(
                    f"matrix not positive definite on the active subspace (p^T A p = {pAp:.3e})",
                    residual=rel, iterations=k)
            alpha = rs / pAp
            z += alpha * p
            r -= alpha * Ap
            s = project(inv_diag * r)
            rs_new = r @ s
            p = s + (rs_new / rs) * p
            rs = rs_new
        rel = np.linalg.norm(r) / r0
        raise SolverError(
            f"conjugate gradients on the symmetric part failed to converge in {self.max_iter} "
            f"iterations (relative residual {rel:.3e}, tol {tol:.1e})",
            residual=rel, iterations=self.max_iter)
