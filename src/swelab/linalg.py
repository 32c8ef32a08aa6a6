"""Sparse solves, prepared once per matrix.

Each matrix swelab solves with is fixed per (mesh, dt, params), so a
``Solver`` prepares it once.  Every matrix here is A = Sym + Skew with Sym
positive definite (on the mean-free subspace when the nullspace is the
constants, as for the stiffness matrix on a torus), and every solve runs
the Concus-Golub-Widlund generalized conjugate gradient method (CGW): the
three-term recurrence

    x_{k+1} = x_{k-1} + w_{k+1} (z_k + x_k - x_{k-1}),   Sym z_k = r_k,

with w_1 = 1 and w_{k+1} = 1 / (1 + rho_k / (rho_{k-1} w_k)), rho_k = z_k . r_k
(P. Concus & G. H. Golub 1976; O. Widlund, SIAM J. Numer. Anal. 15, 1978).
It converges for a skew part of any size.  The inner solves with Sym are
preconditioned conjugate gradients; when A is symmetric, Sym is A and the
first step solves the system.  A matrix that is not finite, as from an
overflowed time step, is refused when its solver is built.  A solve without
a start x0 takes b as its first residual, and one whose start leaves a
residual larger than |b| starts from zero instead.

Each inner solve aims at the residual the solve must end with, but where
the skew part is weak an outer step cannot use that accuracy: the step's
error is dominated by the skew part it leaves out.  The beta-plane Schur
complement on the 32 x 64 equilateral torus with 100 km cells, f0 = 1e-4,
beta = 1e-12 and c2 = 1e5 has |Sym^-1 Skew| near 7e-4 at dt = 600 s.
There the outer residual went 27 -> 8.3e-4 -> 4.5e-7 -> 1.1e-10, relative
to |b|, while the first two inner solves went to 1e-12 and 1.2e-10 of |r|.
So a nonsymmetric solve whose preconditioner only approximates Sym (the
V-cycle, or the Bloch inverse of Sym's translation average where Sym lies
off it) starts in a loose phase.  Each of its steps is the plain correction
x + z, whose inner tolerance is floored at ``_LOOSE_INNER``.  The phase
lasts while every step cuts the true residual to ``_LOOSE_CUT`` times its
value or less.
After the first step that does not, the solve runs exact CGW, started
afresh from the better of the last two iterates, and never loosens again.
This only moves the start of CGW, so its convergence holds for any skew
part.  There a step's solve takes 12 or 13 V-cycles in place of 35 to 38,
and 4 applications of the averaged Bloch inverse in place of 8 (2.7 to 4.1
against 6.0 to 6.3 ms, medians of 12 steps in three runs; the 12-step energy
drift was 2.5e-14 against 1.8e-15).  Symmetric solves keep their one exact
step.  Jacobi-preconditioned solves, the one that switches preconditioner
included, and Bloch-preconditioned ones whose Sym is exactly translation
invariant keep exact CGW from the start: a loose phase restarts the inner
Krylov space at every step, and Jacobi-CG needs its long recurrences.  Over 40 steps of a modal
``dynamics.solve_rossby`` trajectory on that torus with Jacobi, a loose
phase took 6883 to 7014 applications against 2195 to 2392 for exact CGW,
and with the exact Bloch inverse 173 to 270 against 75 to 98 ms.

Three preconditioners serve three kinds of solve.  Cheap ones take Jacobi:
a warm-started step of a smooth state, as in ``dynamics.run_convergence``,
takes 4 Jacobi applications on M + kappa L.  Hard ones do not: for the P2
stiffness matrix L, the Rossby operator and a Schur complement past the
gravity-wave Courant limit Jacobi-CG needs iterations in proportion to 1/h,
and from a random state even the mass-dominated M + kappa L of a default
``swelab simulate`` takes 27.  So every solver starts on Jacobi, and the
first inner solve that passes ``_SWITCH_AFTER`` Jacobi applications builds
its better preconditioner once and keeps it.  The rule reads only what the
solve costs, never a parameter of the matrix.  On a cell torus, given as
the caller's ``lattice``, that is the Bloch-block inverse (``_Bloch``, about
three sparse products) of the matrix's translation average.  It solves an
invariant matrix (L, K, M + kappa L) to rounding in one application, and
the beta-plane Schur complement at dt = 600 s, 4.9e-5 of max|S| off its
average, in 4 applications a step, not 12 or 13 V-cycles.  Where the Bloch
build refuses (a matrix far from its average), and off the lattice (a
jittered torus), the caller's ``coarse``, the P2 -> P1 interpolation,
selects one symmetric multigrid V(1,1)-cycle on the symmetric part, whose
iteration count does not grow with the mesh.  Level 0 is Sym, level 1 the
Galerkin product R^T Sym R; below that, smoothed aggregation (P. Vanek,
J. Mandel & M. Brezina, Computing 56, 1996) coarsens to at most
``_COARSEST`` unknowns, which one dense inverse solves, shifted by a
rank-one term where the nullspace is the constants, unless aggregation
stalls first (see ``_VCycle``).  Every level smooths by Jacobi, damped by a
Lanczos estimate of the spectral radius of D^-1 A (see
``_damped_inv_diag``), and folds its post-smoothing into a correction
operator Q = (I - omega D^-1 A) P formed at set-up, so that a level applies
A once, R once and Q once.  The set-up takes no random vectors, so it is
deterministic.

The Rossby operator K = L + M/L_R^2 of ``dynamics.solve_rossby`` is
stiffness-dominated wherever L_R spans many cells: with L_R/dx = 31.6 on
the 32 x 64 equilateral torus, L's diagonal is 3.25e4 times M/L_R^2's.  Over
40 steps of dt = 0.05/|omega| there (f0 = 1e-4, beta = 1e-12, c2 = 1e5,
tol 1e-13), its Bloch solves took 80 applications from the lattice mode
(1, 1) and 240 from the bump exp(-|x - x_c|^2 / (4 dx)^2) less its mean,
x_c the centre of the torus, after the first solve's ``_SWITCH_AFTER``
Jacobi ones, where Jacobi throughout took 2392 and 36,845.  Off the lattice
its V-cycle took 1804 to 2637 applications after those over such runs on
jittered 16 x 16 and 32 x 32 tori, Jacobi 29,054 to 79,190.

Nothing here imports ``scipy.sparse.linalg`` or ``scipy.linalg``: CG needs
only products with A, and each of those imports costs several megabytes of
resident memory, as would the fill-in of a sparse LU factor of L.
"""

from __future__ import annotations

import functools

import numpy as np
import scipy.sparse as sp

from . import ParameterError

__all__ = ["SolverError", "Solver"]

# largest multigrid level solved by a dense inverse
_COARSEST = 300
# strength-of-connection threshold of the aggregation
_STRENGTH = 0.08
# outer iterations without a new minimum of the true residual after which a
# solve has stalled at a rounding floor above its tolerance.  It also stops
# solves that would converge once the skew part is strong: of 60 random
# V-cycle systems (M + kappa L on tori plus a random skew part 1e-4 to 3000
# times as large by row sums), all of which converge to 1e-12 without it, the
# 23 above 20 times went 50 to 1131 iterations without one, those below 17 at
# most 45
_STALL = 50
# the loose phase of a nonsymmetric solve with an inexact preconditioner: the
# floor of its inner relative tolerance, and the factor by which each of its
# steps must cut the true residual for the phase to go on.  Over 10
# beta-plane workload steps, floors of 1e-2 and 1e-4 took 12.4 and 14.2
# V-cycles per step against 12.5; a factor of 0.1 took 33 to 43 % more
# V-cycles than 0.3 on the tests' Schur complements with the skew part scaled
# by 10, and 0.5 did no better
_LOOSE_INNER = 1e-3
_LOOSE_CUT = 0.3
# the largest deviation of an entry from its translation average, relative to
# max|A|, at which _Bloch inverts the average: beta-plane steps took 9.7 against
# 13.3 ms for the V-cycle at 1.6e-2, 11.5 against 10.5 at 2.1e-2 (CHANGES.md)
_AVERAGE_WITHIN = 2e-2
# Jacobi applications in one inner solve after which a solver builds its
# better preconditioner (Solver._upgrade).  On one thread the Bloch build of
# M + kappa L costs 33 to 45 Jacobi CG iterations and a Bloch one 2.6 to 3.3
# (right 32 x 32 and 48 x 48, equilateral 32 x 64), so the switch repays
# within 12 solves that take more than 6 to 7 Jacobi applications, within
# 100 from 3 to 4.  A warm-started step of the converge run takes 4 (set-up
# and 100 steps at 32 x 32: 68 ms with the switch forced, 72 without; at
# 16 x 16: 25 and 21), a step of M + kappa L from a random state 26 to 29
_SWITCH_AFTER = 12


class SolverError(RuntimeError):
    """Raised when a solve fails: a matrix or a residual that is not finite,
    no convergence, a stalled residual, or a symmetric part not definite."""

    def __init__(self, message, residual=None, iterations=None):
        super().__init__(message)
        self.residual = residual
        self.iterations = iterations


class Solver:
    """A x = b for one sparse A whose symmetric part is positive definite,
    or semi-definite with constant nullspace when ``nullspace=True``; then
    iterates are kept mean-free and solutions have zero coefficient mean.

    Solves are preconditioned by Jacobi until one inner solve passes
    ``_SWITCH_AFTER`` applications; then ``lattice``, the dof layout
    ``fem.OperatorSet.cell_layout``, selects the Bloch inverse of the
    symmetric part's translation average where the part lies near it, and
    otherwise ``coarse``, a sparse prolongation from a coarser space that maps
    constants to constants, selects the multigrid preconditioner on the
    symmetric part, for that solve and every later one.  An A that is not
    finite is refused.
    """

    def __init__(self, A, nullspace=False, coarse=None, lattice=None):
        A = sp.csr_matrix(A)
        n = A.shape[0]
        if A.shape[1] != n:
            raise ParameterError(f"matrix is not square: A is {A.shape}")
        if not np.isfinite(A.data).all():
            raise SolverError("matrix is not finite", iterations=0)
        self.A = A
        self.n = n
        self.max_iter = max(50, 10 * n)
        self._project = (lambda v: v - v.mean()) if nullspace else (lambda v: v)
        self.sym = _symmetric_part(A)
        self._precondition = functools.partial(np.multiply, _inv_diag(self.sym))
        self._loose = False
        self._better = (lattice, coarse, nullspace)

    def _upgrade(self):
        """Replace Jacobi, once, by the Bloch inverse on ``lattice`` or, where
        that build refuses, by the V-cycle on ``coarse``; with neither keep it."""
        lattice, coarse, nullspace = self._better
        self._better = None
        better = None if lattice is None else _Bloch.build(self.sym, lattice, nullspace)
        if better is None and coarse is not None:
            better = _VCycle(self.sym, coarse, nullspace)
        if better is not None:
            self._precondition = better
            # a nonsymmetric solve with an inexact preconditioner starts loose
            inexact = isinstance(better, _VCycle) or better.averaged
            self._loose = inexact and self.sym is not self.A

    def solve(self, b, tol=1e-12, x0=None):
        """x with |b - A x| <= tol |b|; x0 is an optional initial guess.

        Raises ``SolverError`` once the true residual has made no new
        minimum for ``_STALL`` outer iterations, as when tol lies below the
        rounding floor of the residual and no number of iterations meets it.
        """
        b = np.asarray(b, dtype=float)
        if b.shape != (self.n,):
            raise ParameterError(f"shape mismatch: A is {(self.n, self.n)}, b is {b.shape}")
        if not np.isfinite(b).all():
            raise SolverError("right-hand side is not finite", iterations=0)
        b = self._project(b)
        bnorm = np.linalg.norm(b)
        if bnorm == 0.0:
            return np.zeros(self.n)
        x, r = np.zeros(self.n), b
        if x0 is not None:
            x0 = self._project(np.array(x0, dtype=float))
            r0 = self._project(b - self.A @ x0)
            # a guess worse than zero is dropped; one that is not finite is
            # kept, and fails the finiteness check below
            if not np.linalg.norm(r0) > bnorm:
                x, r = x0, r0
        x_prev, target = x, tol * bnorm
        best, k_best = np.inf, 0
        loose, start = self._loose, 0
        for k in range(self.max_iter):
            if k > 0:
                r = self._project(b - self.A @ x)
            rnorm = np.linalg.norm(r)
            if not np.isfinite(rnorm):
                raise SolverError(
                    f"residual is not finite after {k} iterations (|r| = {rnorm}, |b| = {bnorm})",
                    residual=rnorm, iterations=k)
            if rnorm <= target:
                return x
            if rnorm < best:
                best, k_best = rnorm, k
            elif k - k_best >= _STALL:
                raise SolverError(
                    f"generalized conjugate gradients failed to converge: the relative "
                    f"residual stalled at {best / bnorm:.3e} for {_STALL} iterations "
                    f"(tol {tol:.1e})", residual=best / bnorm, iterations=k)
            # each step of the loose phase, and the first of exact CGW once a
            # loose step left more than _LOOSE_CUT of the residual, starts a
            # recurrence afresh: omega = 1, a plain correction x + z.  Exact
            # CGW starts from the better of the last two iterates
            if loose:
                if k > 0 and rnorm > _LOOSE_CUT * rnorm_prev:
                    loose = False
                    if rnorm > rnorm_prev:
                        x, r, rnorm = x_prev, r_prev, rnorm_prev
                start, r_prev, rnorm_prev = k, r, rnorm
            # inner target 0.1 tol |b|, below the outer one so that one step
            # finishes a symmetric solve; relative to |r| clipped to [tol, 0.1]
            inner = min(max(0.1 * target / rnorm, tol), 0.1)
            z = self._cg(r, max(inner, _LOOSE_INNER) if loose else inner)
            rho = z @ r
            omega = 1.0 if k == start else 1.0 / (1.0 + rho / (rho_prev * omega))
            x, x_prev = x_prev + omega * (z + x - x_prev), x
            rho_prev = rho
        raise SolverError(
            f"generalized conjugate gradients failed to converge in {self.max_iter} "
            f"iterations (relative residual {rnorm / bnorm:.3e}, tol {tol:.1e})",
            residual=rnorm / bnorm, iterations=self.max_iter)

    def _cg(self, r, tol):
        """z with |r - Sym z| <= tol |r| by preconditioned conjugate gradients.

        Jacobi-CG that passes ``_SWITCH_AFTER`` iterations with a better
        preconditioner pending builds it (``_upgrade``) and goes on from z
        with a fresh search direction."""
        A, precondition, project = self.sym, self._precondition, self._project
        z = np.zeros(self.n)
        r = r.copy()
        r0 = np.linalg.norm(r)
        start = 0
        for k in range(self.max_iter):
            rel = np.linalg.norm(r) / r0
            if rel <= tol:
                return project(z)
            if k == _SWITCH_AFTER and self._better is not None:
                self._upgrade()
                precondition, start = self._precondition, k
            s = project(precondition(r))
            rs_new = r @ s
            p = s if k == start else s + (rs_new / rs) * p
            rs = rs_new
            Ap = project(A @ p)
            pAp = p @ Ap
            if pAp <= 0.0:
                raise SolverError(
                    f"matrix not positive definite on the active subspace (p^T A p = {pAp:.3e})",
                    residual=rel, iterations=k)
            alpha = rs / pAp
            z += alpha * p
            r -= alpha * Ap
        rel = np.linalg.norm(r) / r0
        raise SolverError(
            f"conjugate gradients on the symmetric part failed to converge in {self.max_iter} "
            f"iterations (relative residual {rel:.3e}, tol {tol:.1e})",
            residual=rel, iterations=self.max_iter)


def _symmetric_part(A):
    """(A + A^T) / 2, or A itself when its skew part is below 1e-12 max|A|.

    An A symmetric by assembly is recognised without a transpose: with
    sorted indices, the products of A and of its CSC view A^T with one vector
    add the same terms in the same order, so they agree bitwise, where a
    transpose and sort would take four times as long (0.2 against 0.9 ms
    for L on the 48 x 48 torus).  A finite-element matrix has a symmetric
    sparsity pattern; then A^T has A's index arrays once sorted, the parts
    are sums of the two data arrays, and the symmetric part shares A's index
    arrays.
    """
    probe = np.cos(2.39996 * np.arange(A.shape[0]))
    if A.has_sorted_indices and np.array_equal(A @ probe, A.T @ probe):
        return A
    At = A.T.tocsr()
    At.sort_indices()
    same = (A.has_sorted_indices and np.array_equal(A.indptr, At.indptr)
            and np.array_equal(A.indices, At.indices))
    skew = np.abs(A.data - At.data if same else (A - At).data).max(initial=0.0)
    if skew <= 1e-12 * max(np.abs(A.data).max(initial=0.0), 1e-300):
        return A
    if same:
        return sp.csr_matrix((0.5 * (A.data + At.data), A.indices, A.indptr), shape=A.shape)
    return (0.5 * (A + At)).tocsr()


def _inv_diag(A):
    """1 / diag(A), with 1 where the diagonal is not positive."""
    diag = A.diagonal()
    ok = diag > 0
    return np.where(ok, 1.0 / np.where(ok, diag, 1.0), 1.0)


def _damped_inv_diag(A):
    """omega D^-1 with omega = 4 / (3 rho), rho the largest Ritz value of ten
    Lanczos steps on D^-1/2 A D^-1/2 from the fixed start cos(2.39996 i).

    A Ritz value lies below the spectral radius rho_A of D^-1 A; on the
    levels measured rho was 0.93 to 0.98 of rho_A, so omega rho_A <= 1.44 < 2
    and omega D^-1 is a convergent smoother and a stable prolongator
    smoothing."""
    inv_diag = _inv_diag(A)
    scale = np.sqrt(inv_diag)
    w, q = np.cos(2.39996 * np.arange(A.shape[0])), 0.0
    alphas, betas = [], [np.linalg.norm(w)]
    # fewer steps where the Krylov space is invariant and its Ritz values exact
    while len(alphas) < 10 and betas[-1] > 1e-12:
        q_prev, q = q, w / betas[-1]
        w = scale * (A @ (scale * q)) - betas[-1] * q_prev
        alphas.append(q @ w)
        w -= alphas[-1] * q
        betas.append(np.linalg.norm(w))
    T = np.diag(alphas) + np.diag(betas[1:-1], 1)
    rho = np.linalg.eigvalsh(T, UPLO="U")[-1]
    return (4.0 / (3.0 * rho)) * inv_diag


def _aggregate(A):
    """Tentative prolongation of smoothed aggregation: one column of ones per aggregate.

    Unknowns i and j are strongly connected when |a_ij| >= _STRENGTH
    sqrt(a_ii a_jj).  In index order, an unknown whose strong neighbours are
    all free founds an aggregate with them; every unknown still free then
    joins the first aggregate among its strong neighbours.  Each free
    unknown has one, or it would have founded its own.
    """
    n = A.shape[0]
    C = A.tocoo()
    d = np.sqrt(np.abs(A.diagonal()))
    keep = (C.row != C.col) & (np.abs(C.data) >= _STRENGTH * d[C.row] * d[C.col])
    S = sp.csr_matrix((np.ones(keep.sum()), (C.row[keep], C.col[keep])), shape=(n, n))
    indptr, indices = S.indptr.tolist(), S.indices.tolist()
    agg = [-1] * n
    count = 0
    for i in range(n):
        nbrs = indices[indptr[i]:indptr[i + 1]]
        if agg[i] < 0 and all(agg[j] < 0 for j in nbrs):
            agg[i] = count
            for j in nbrs:
                agg[j] = count
            count += 1
    founded = agg.copy()
    for i in range(n):
        if agg[i] < 0:
            agg[i] = next(founded[j] for j in indices[indptr[i]:indptr[i + 1]] if founded[j] >= 0)
    return sp.csr_matrix((np.ones(n), (np.arange(n), agg)), shape=(n, count))


class _VCycle:
    """One symmetric V(1,1)-cycle of multigrid for the symmetric matrix A.

    The first prolongation is ``coarse``; each further one is the aggregation
    prolongator T smoothed to (I - omega D^-1 A) T, with omega D^-1 the
    level's ``_damped_inv_diag``, a convergent smoother.  Coarse matrices are
    the Galerkin products P^T A P.  A level is (A, omega D^-1, R = P^T, Q) with
    Q = (I - omega D^-1 A) P.  Pre-smoothing gives x1 = omega D^-1 r and the
    residual t = r - A x1; the coarse correction e solves for R t, and
    post-smoothing the residual t - A P e of x1 + P e gives

        x2 = x1 + omega D^-1 t + Q e,

    the textbook V(1,1)-cycle with one product with A per level instead of
    two.

    One dense inverse solves the coarsest level A_c.  A definite A has a
    definite A_c.  With ``nullspace`` A is semi-definite with the constants
    as nullspace.  Every prolongation maps constants to constants, so each
    level keeps that nullspace, and R = P^T keeps mean-free residuals
    mean-free.  The coarsest level then inverts A_c + s 1 1^T / n_c, with s
    the mean diagonal of A_c.  That matrix is definite, and on mean-free
    vectors its inverse is the pseudo-inverse of A_c: the usual
    regularisation of the pure Neumann problem (P. Bochev & R. B. Lehoucq,
    SIAM Review 47, 2005).

    Aggregation stalls, keeping more than half of a level's unknowns, where
    most of them have no strong neighbour, as on the mass-dominated coarse
    levels of a Schur complement (on the 48 x 48 right torus at Courant
    number 1.9, 384 unknowns gave 384 aggregates).  Such a level is nearly
    diagonal; it ends the hierarchy, and its damped Jacobi smoother stands in
    for the coarsest solve.
    """

    def __init__(self, A, coarse, nullspace):
        self.levels = []
        P = coarse
        while A.shape[0] > _COARSEST:
            smoother = _damped_inv_diag(A)
            if P is None:
                T = _aggregate(A)
                if 2 * T.shape[1] > A.shape[0]:
                    break
                P = (T - sp.diags(smoother) @ (A @ T)).tocsr()
            AP = A @ P
            R = P.T.tocsr()
            self.levels.append((A, smoother, R, (P - sp.diags(smoother) @ AP).tocsr()))
            A, P = (R @ AP).tocsr(), None
        if A.shape[0] > _COARSEST:
            self.coarsest = functools.partial(np.multiply, smoother)
        else:
            A = A.toarray()
            if nullspace:
                A += A.diagonal().mean() / A.shape[0]
            self.coarsest = functools.partial(np.dot, np.linalg.inv(A))

    def __call__(self, r, level=0):
        if level == len(self.levels):
            return self.coarsest(r)
        A, smoother, R, Q = self.levels[level]
        x = smoother * r
        t = r - A @ x
        x += smoother * t
        x += Q @ self(R @ t, level + 1)
        return x


class _Bloch:
    """The inverse of a matrix A that is translation invariant on the cell
    torus of a layout (n1, n2, perm), or of the translation average of one
    that is nearly so, its optimal block-circulant preconditioner (T. F. Chan,
    SIAM J. Sci. Stat. Comput. 9, 1988).  An invariant A is block circulant: a
    stencil T[c, c', d] couples class c of each cell m to class c' of cell
    m + d, so a Bloch wave e^{i k . m} X sees the 4 x 4 Hermitian block
    sum_d T[c, c', d] e^{i k . d}, the conjugate of rfft2(T), and two real FFTs
    around one batched 4 x 4 product solve A (R. H. Chan & M. K. Ng, SIAM
    Review 38, 1996).  With ``nullspace`` the k = 0 block takes s 1 1^T / 4,
    s the mean diagonal, for A + s 1 1^T / n as at the coarsest V-cycle level.
    """

    def __init__(self, inverse, perm, shape, averaged):
        self.inverse, self.perm, self.shape = inverse, perm, shape
        # whether A lies off its average by more than rounding, so that the
        # inverse preconditions A rather than solving it
        self.averaged = averaged

    @classmethod
    def build(cls, A, lattice, nullspace):
        """The inverse of the translation average of the symmetric A: cell
        (0, 0)'s stencil plus each entry's mean deviation from it over all
        cells, so an invariant A keeps its stencil.  None, before any FFT,
        unless every row holds its class's stencil pattern and every entry
        lies within ``_AVERAGE_WITHIN`` max|A| of the average."""
        n1, n2, perm = lattice
        cells = n1 * n2
        top = np.abs(A.data).max(initial=0.0)
        # entry (r, s) is T[c, c', d] with d = (i_s - i_r, j_s - j_r) mod (n1, n2);
        # in T tiled to offsets -n1 < d1 < n1, -n2 < d2 < n2 its flat index is
        # a sum of one term per row and one per column
        idx = np.int32 if 64 * cells <= np.iinfo(np.int32).max else np.intp
        kind, i, j = (a.astype(idx) for a in np.unravel_index(np.argsort(perm), (4, n1, n2)))
        row_term = 16 * cells * kind - 2 * n2 * i - j
        col_term = 4 * cells * kind + 2 * n2 * (i + n1) + j + n2
        tiled = np.zeros(64 * cells)
        for r in perm[::cells]:
            entries = slice(A.indptr[r], A.indptr[r + 1])
            tiled[row_term[r] + col_term[A.indices[entries]]] = A.data[entries]
        tiled = tiled.reshape(4, 4, 2 * n1, 2 * n2)
        tiled[:, :, :n1] = tiled[:, :, n1:]
        tiled[..., :n2] = tiled[..., n2:]
        stencil = tiled[:, :, n1:, n2:]
        # every row holds its class's nonzero stencil entries, and every entry lies
        # near the average: the stencil less its mean deviation, folded mod (n1, n2)
        where = np.repeat(row_term, np.diff(A.indptr))
        where += col_term[A.indices]
        values = tiled.reshape(-1)[where]
        held = np.diff(np.concatenate(([0], np.cumsum(values != 0.0, dtype=idx)))[A.indptr])
        values -= A.data
        mean = np.bincount(where, values, 64 * cells).reshape(4, 4, 2, n1, 2, n2).sum(axis=(2, 4))
        mean /= cells
        values -= np.tile(mean, (2, 2)).reshape(-1)[where]
        deviation = np.abs(values, out=values).max(initial=0.0)
        if not (deviation <= _AVERAGE_WITHIN * top and np.array_equal(
                held, np.count_nonzero(stencil.reshape(4, -1), axis=1)[kind])):
            return None
        blocks = np.fft.rfft2(stencil - mean).conj().transpose(2, 3, 0, 1)
        if nullspace:
            blocks[0, 0] += A.diagonal()[perm].mean() / 4.0
        inverse = np.linalg.inv(blocks).transpose(2, 3, 0, 1)
        # the entries of an invariant A vary across cells by rounding (2.8e-14
        # of max|L| on the 32 x 64 equilateral torus)
        averaged = deviation > 1e-12 * top
        return cls(np.ascontiguousarray(inverse), perm, (n1, n2), averaged)

    def __call__(self, r):
        R = np.fft.rfft2(r[self.perm].reshape(4, *self.shape))
        x = np.empty_like(r)
        x[self.perm] = np.fft.irfft2((self.inverse * R).sum(axis=1), s=self.shape).ravel()
        return x
