import functools
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sparse
from hypothesis import given, settings
from hypothesis import strategies as st

from swelab import bloch, dynamics, fem, helmholtz, linalg
from swelab.dynamics import RossbyParams, SweParams
from swelab.linalg import Solver, SolverError
from swelab.mesh import Mesh, build_equilateral_torus, build_right_triangle_torus

from .oracles import jittered_torus, renumbered_torus


def _random_spd(n, rng, density=0.4):
    A = sparse.random(n, n, density=density, random_state=rng, format="csr")
    A = A + A.T + n * sparse.eye(n)
    return A.tocsr()


def test_solve_spd_matches_dense():
    rng = np.random.default_rng(0)
    A = _random_spd(40, np.random.RandomState(0))
    b = rng.standard_normal(40)
    x = Solver(A).solve(b, tol=1e-13)
    assert np.allclose(x, np.linalg.solve(A.toarray(), b), rtol=1e-9, atol=1e-11)


def test_solve_spd_warm_start():
    rng = np.random.default_rng(1)
    A = _random_spd(30, np.random.RandomState(1))
    b = rng.standard_normal(30)
    solver = Solver(A)
    x = solver.solve(b)
    x2 = solver.solve(b, x0=x)
    assert np.allclose(x2, x, rtol=1e-9, atol=1e-12)


def test_solve_spd_singular_with_nullspace():
    # graph Laplacian of a cycle: singular, nullspace = constants
    n = 12
    main = 2.0 * np.ones(n)
    off = -np.ones(n)
    A = sparse.diags([main, off[:-1], off[:-1]], [0, 1, -1]).tolil()
    A[0, -1] = A[-1, 0] = -1.0
    A = A.tocsr()
    rng = np.random.default_rng(2)
    b = rng.standard_normal(n)
    b -= b.mean()
    x = Solver(A, nullspace=True).solve(b)
    assert abs(x.mean()) < 1e-12
    assert np.linalg.norm(A @ x - b) < 1e-10 * np.linalg.norm(b)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=2, max_value=24), st.integers(min_value=0, max_value=10_000),
       st.floats(min_value=0.0, max_value=100.0))
def test_solver_splits_asymmetric(n, seed, ratio):
    # A = Sym + Skew with the skew part up to 100 times the symmetric one in
    # the 2-norm: the generalized CG still meets the residual tolerance
    rs = np.random.RandomState(seed)
    sym = _random_spd(n, rs)
    S = sparse.random(n, n, density=0.4, random_state=rs, format="csr")
    skew = (S - S.T).tocsr()
    size = np.linalg.norm(skew.toarray(), 2)
    if size > 0:
        skew *= ratio * np.linalg.norm(sym.toarray(), 2) / size
    A = (sym + skew).tocsr()
    b = np.random.default_rng(seed).standard_normal(n)
    x = Solver(A).solve(b, tol=1e-12)
    assert np.linalg.norm(b - A @ x) <= 1e-12 * np.linalg.norm(b)


@pytest.mark.parametrize("nullspace", [False, True])
@pytest.mark.parametrize("skew", [0.0, 3.0])
def test_solver_raises_on_non_finite_residual(nullspace, skew):
    # a nan or infinite right-hand side never counts as converged, on the
    # symmetric path (no skew part) as well as with a skew part
    solver = Solver(sparse.csr_matrix(np.array([[2.0, -1.0 + skew], [-1.0 - skew, 2.0]])),
                    nullspace=nullspace)
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(SolverError, match="not finite") as info:
            solver.solve(np.array([bad, 1.0]))
        assert info.value.iterations == 0


def test_solver_rejects_non_square():
    with pytest.raises(ValueError, match="not square"):
        Solver(sparse.csr_matrix(np.ones((2, 3))))


def test_solver_rejects_mismatched_rhs():
    solver = Solver(_random_spd(5, np.random.RandomState(4)))
    with pytest.raises(ValueError, match="shape mismatch"):
        solver.solve(np.ones(6))


def test_solve_spd_fails_on_indefinite():
    A = sparse.csr_matrix(np.diag([1.0, -1.0, 1.0]))
    with pytest.raises(SolverError):
        Solver(A).solve(np.array([1.0, 1.0, 1.0]))


def test_inner_cg_raises_at_its_iteration_cap():
    # a path Laplacian of 200 unknowns needs far more than 3 CG iterations
    n = 200
    A = sparse.diags([-np.ones(n - 1), 2.1 * np.ones(n), -np.ones(n - 1)], [-1, 0, 1]).tocsr()
    solver = Solver(A)
    solver.max_iter = 3
    with pytest.raises(SolverError, match="symmetric part failed to converge in 3 iterations") as info:
        solver.solve(np.ones(n))
    assert info.value.iterations == 3 and info.value.residual > 1e-3


def test_solve_spd_zero_rhs():
    A = _random_spd(8, np.random.RandomState(3))
    x = Solver(A).solve(np.zeros(8))
    assert np.allclose(x, 0.0)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=2, max_value=24), st.integers(min_value=0, max_value=10_000))
def test_solve_spd_property(n, seed):
    rs = np.random.RandomState(seed)
    A = _random_spd(n, rs)
    b = np.random.default_rng(seed).standard_normal(n)
    x = Solver(A).solve(b, tol=1e-12)
    assert np.linalg.norm(A @ x - b) <= 1e-10 * max(np.linalg.norm(b), 1.0)


class _CountingMatrix:
    """Stands in for a solver's A and counts the products with it."""

    def __init__(self, A):
        self.A, self.products = A, 0

    def __matmul__(self, v):
        self.products += 1
        return self.A @ v


def test_solve_from_zero_forms_no_product_with_the_zero_start():
    # a symmetric solve takes one step; its only product with A checks the
    # residual after it, as the residual of x = 0 is b itself
    A = _random_spd(30, np.random.RandomState(5))
    b = np.random.default_rng(5).standard_normal(30)
    solver = Solver(A)
    solver.A = counting = _CountingMatrix(A)
    x = solver.solve(b)
    assert counting.products == 1
    assert np.linalg.norm(b - A @ x) <= 1e-12 * np.linalg.norm(b)
    # a start x0 costs the product that forms its residual
    solver.solve(b, x0=x + 1e-3 * b)
    assert counting.products == 3


def test_guess_worse_than_zero_is_dropped():
    A = _random_spd(30, np.random.RandomState(6))
    b = np.random.default_rng(6).standard_normal(30)
    solver = Solver(A)
    cold = solver.solve(b)
    # |b - A x0| = 11 |b| for x0 = -10 x: the solve starts from zero instead
    assert np.array_equal(solver.solve(b, x0=-10.0 * cold), cold)
    # a guess better than zero is kept: the solve returns it untouched
    assert np.array_equal(solver.solve(b, x0=cold), cold)
    # a guess that is not finite is kept too, and reported
    with pytest.raises(SolverError, match="not finite") as info:
        solver.solve(b, x0=np.full(30, np.nan))
    assert info.value.iterations == 0



# --------------------------------------------------------------------------
# the multigrid-preconditioned stiffness solver (fem.OperatorSet.L_solver)

TORI = {
    "right": lambda n: build_right_triangle_torus(n, n, 1.0, 1.0),
    "equilateral": lambda n: build_equilateral_torus(n, n, 1.0 / n),
    "jittered": lambda n: jittered_torus(n, seed=n),
    "aspect-16": lambda n: build_right_triangle_torus(n, n, 16.0, 1.0),
}


@functools.lru_cache(maxsize=None)
def _operators(kind, n):
    return fem.operators(TORI[kind](n))


def _mean_free(rng, n):
    b = rng.standard_normal(n)
    return b - b.mean()


def _count_iterations(solver):
    """Wrap the solver's preconditioner, and the one it switches to; the list
    grows by the preconditioner applied at each CG iteration."""
    calls = []

    def wrap():
        precondition = solver._precondition
        solver._precondition = lambda r: calls.append(precondition) or precondition(r)

    def upgrade(upgrade=solver._upgrade):
        before = solver._precondition
        upgrade()
        if solver._precondition is not before:
            wrap()

    wrap()
    solver._upgrade = upgrade
    return calls


def _bloch_count(calls):
    return sum(isinstance(p, linalg._Bloch) for p in calls)


def _upgraded(solver):
    """The solver with its better preconditioner built at once, as a solve
    builds it once Jacobi passes linalg._SWITCH_AFTER applications."""
    solver._upgrade()
    return solver


def _vcycle(A, coarse, nullspace=False):
    """The V-cycle on A's symmetric part that a solver offered ``coarse`` and
    no lattice builds once a solve passes linalg._SWITCH_AFTER applications."""
    B = _upgraded(Solver(A, nullspace=nullspace, coarse=coarse))._precondition
    assert isinstance(B, linalg._VCycle)
    return B


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([("right", 16), ("right", 24), ("equilateral", 16), ("jittered", 16)]),
       st.integers(min_value=0, max_value=10_000))
def test_vcycle_is_symmetric_positive_definite(mesh, seed):
    # L_solver takes the Bloch solve on the lattices, so the V-cycle is built here
    ops = _operators(*mesh)
    B = _vcycle(ops.L, ops.p1_prolongation, nullspace=True)
    rng = np.random.default_rng(seed)
    n = _operators(*mesh).p2.n_dofs
    x, y = _mean_free(rng, n), _mean_free(rng, n)
    Bx, By = B(x), B(y)
    scale = max(np.linalg.norm(x) * np.linalg.norm(By), np.linalg.norm(y) * np.linalg.norm(Bx))
    assert abs(x @ By - y @ Bx) <= 1e-12 * scale
    assert x @ Bx > 0.0


# On the aspect-16 torus rounding alone bounds the true residual by about
# 2e-13 |b| (eps |L| |x| / |b|; the dense pseudo-inverse solution leaves
# 1.2e-12), so no solver reaches 1e-14 there.
@pytest.mark.parametrize(
    "kind,tol",
    [(kind, tol) for kind in TORI for tol in (1e-12, 1e-14) if (kind, tol) != ("aspect-16", 1e-14)],
)
def test_multigrid_meets_the_true_residual(kind, tol):
    # L_solver without its lattice: the solve's Jacobi iterations pass the
    # count and the V-cycle takes over within it, as on the jittered torus
    ops = _operators(kind, 24)
    b = _mean_free(np.random.default_rng(5), ops.p2.n_dofs)
    solver = Solver(ops.L, nullspace=True, coarse=ops.p1_prolongation)
    x = solver.solve(b, tol=tol)
    assert isinstance(solver._precondition, linalg._VCycle)
    assert np.linalg.norm(b - ops.L @ x) <= tol * np.linalg.norm(b)
    assert abs(x.mean()) <= 1e-14 * np.linalg.norm(x)


@pytest.mark.parametrize("kind", list(TORI))
def test_multigrid_agrees_with_jacobi(kind):
    ops = _operators(kind, 24)
    b = _mean_free(np.random.default_rng(6), ops.p2.n_dofs)
    solver = Solver(ops.L, nullspace=True, coarse=ops.p1_prolongation)
    x = solver.solve(b, tol=1e-12)
    assert isinstance(solver._precondition, linalg._VCycle)
    ref = Solver(ops.L, nullspace=True).solve(b, tol=1e-12)
    assert np.linalg.norm(x - ref) <= 1e-10 * np.linalg.norm(ref)


@pytest.mark.parametrize("n", [16, 32, 64])
@pytest.mark.parametrize("kind", ["right", "equilateral"])
def test_multigrid_iterations_do_not_grow(kind, n):
    # Jacobi-CG needs 88, 181 and 363 iterations on the right torus.  L_solver
    # takes the Bloch solve on these lattices, so the V-cycle is built here
    ops = fem.operators(TORI[kind](n))
    solver = _upgraded(Solver(ops.L, nullspace=True, coarse=ops.p1_prolongation))
    calls = _count_iterations(solver)
    b = _mean_free(np.random.default_rng(7), ops.p2.n_dofs)
    solver.solve(b, tol=1e-12)
    assert 0 < len(calls) <= 60
    assert all(isinstance(p, linalg._VCycle) for p in calls)


def test_solver_off_the_lattice_builds_the_vcycle_within_its_first_solve():
    # every solver starts on Jacobi; off the lattice the first inner solve
    # that passes the count builds the V-cycle on coarse and goes on under it
    ops = _operators("jittered", 16)
    assert ops.cell_layout is None
    solver = Solver(ops.L, nullspace=True, coarse=ops.p1_prolongation)
    assert isinstance(solver._precondition, functools.partial)
    b = _mean_free(np.random.default_rng(18), ops.p2.n_dofs)
    x = solver.solve(b, tol=1e-12)
    assert isinstance(solver._precondition, linalg._VCycle) and solver._better is None
    assert np.linalg.norm(b - ops.L @ x) <= 1e-12 * np.linalg.norm(b)


def test_small_mesh_is_solved_in_one_step():
    # the first solve switches from Jacobi to the Bloch solve, which then
    # solves in one application
    ops = fem.operators(TORI["right"](8))
    assert ops.p2.n_dofs <= 300
    calls = _count_iterations(ops.L_solver)
    rng = np.random.default_rng(8)
    for jacobi in (linalg._SWITCH_AFTER, 0):
        del calls[:]
        b = _mean_free(rng, ops.p2.n_dofs)
        x = ops.L_solver.solve(b, tol=1e-12)
        assert len(calls) == jacobi + 1 and _bloch_count(calls) == 1
        assert np.linalg.norm(b - ops.L @ x) <= 1e-12 * np.linalg.norm(b)


def test_stalled_solve_fails_fast():
    # as `swelab helmholtz --n1 16 --n2 16 --tol 1e-16`: the true residual
    # sits at its rounding floor near 3e-16 |b| from the fifth iteration on,
    # far below the cap of 10240 outer iterations
    ops = fem.operators(build_equilateral_torus(16, 16, 1.0))
    u = fem.Field(ops.v, np.random.default_rng(0).standard_normal(ops.v.n_dofs))
    with pytest.raises(SolverError, match=r"stalled at \d\.\d{3}e-1[56] ") as info:
        helmholtz.decompose(u, tol=1e-16)
    assert ops.L_solver.max_iter == 10240
    assert info.value.iterations <= 60
    assert 1e-16 < info.value.residual < 1e-14


# --------------------------------------------------------------------------
# the exact Bloch solve of translation-invariant matrices on lattice tori

BLOCH_TORI = {
    "right-8": lambda: build_right_triangle_torus(8, 8, 1.0, 1.0),
    "right-16": lambda: build_right_triangle_torus(16, 16, 1.0, 1.0),
    "aspect-16": lambda: build_right_triangle_torus(16, 16, 16.0, 1.0),
    "equilateral-8x16": lambda: build_equilateral_torus(8, 16, 1.0),
    "renumbered-16": lambda: renumbered_torus(build_right_triangle_torus(16, 16, 1.0, 1.0)),
}


@functools.lru_cache(maxsize=None)
def _bloch_operators(mesh):
    return fem.operators(BLOCH_TORI[mesh]())


def _lattice_matrix(ops, matrix):
    """(A, nullspace): M + kappa L past the Courant limit, L, or the Rossby
    operator K = L + M / L_R^2 with a deformation radius of ten cells."""
    cell = ops.area / ops.p2.mesh.n_v
    return {"M+kappa L": (ops.M + 4.0 * cell * ops.L, False),
            "L": (ops.L, True),
            "K": (ops.L + ops.M / (100.0 * cell), False)}[matrix]


@pytest.mark.parametrize("matrix", ["M+kappa L", "L", "K"])
@pytest.mark.parametrize("mesh", list(BLOCH_TORI))
def test_bloch_solves_lattice_matrices_exactly(mesh, matrix):
    # one application solves to rounding.  On the aspect-16 torus rounding
    # bounds a solve of L near 2e-13 (see above), and CGW takes 2 (K) to 11
    # (L) applications to reach 1e-13
    ops = _bloch_operators(mesh)
    A, nullspace = _lattice_matrix(ops, matrix)
    solver = _upgraded(Solver(A, nullspace=nullspace, lattice=ops.cell_layout))
    assert isinstance(solver._precondition, linalg._Bloch)
    calls = _count_iterations(solver)
    b = np.random.default_rng(15).standard_normal(ops.p2.n_dofs)
    b = b - b.mean() if nullspace else b
    x = solver.solve(b, tol=1e-13)
    assert np.linalg.norm(b - A @ x) <= 1e-13 * np.linalg.norm(b)
    assert len(calls) == 1 or mesh == "aspect-16"
    if nullspace:
        assert abs(x.mean()) <= 1e-14 * np.linalg.norm(x)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(list(BLOCH_TORI)), st.sampled_from(["L", "K"]),
       st.integers(min_value=0, max_value=10_000))
def test_bloch_solve_is_symmetric_positive_definite(mesh, matrix, seed):
    ops = _bloch_operators(mesh)
    A, nullspace = _lattice_matrix(ops, matrix)
    B = _upgraded(Solver(A, nullspace=nullspace, lattice=ops.cell_layout))._precondition
    rng = np.random.default_rng(seed)
    x, y = _mean_free(rng, ops.p2.n_dofs), _mean_free(rng, ops.p2.n_dofs)
    Bx, By = B(x), B(y)
    scale = max(np.linalg.norm(x) * np.linalg.norm(By), np.linalg.norm(y) * np.linalg.norm(Bx))
    assert abs(x @ By - y @ Bx) <= 1e-12 * scale
    assert x @ Bx > 0.0


def _perturbed(row):
    """M + kappa L on the 16 x 16 right torus with the first off-diagonal entry
    of one row scaled by 1 + 1e-8."""
    ops = _bloch_operators("right-16")
    A = sparse.csr_matrix(_lattice_matrix(ops, "M+kappa L")[0], copy=True)
    entry = next(e for e in range(A.indptr[row], A.indptr[row + 1]) if A.indices[e] != row)
    A.data[entry] *= 1.0 + 1e-8
    return A, False, ops.cell_layout


def _stiffness(ops, layout):
    return ops.L, True, layout, ops.p1_prolongation


def _translation_average(A, layout):
    """A with each entry replaced by the mean over all cells of its stencil
    entry, keyed by the two dof classes and the cell offset."""
    n1, n2, perm = layout
    kind, i, j = np.unravel_index(np.argsort(perm), (4, n1, n2))
    C = A.tocoo()
    key = (((kind[C.row] * 4 + kind[C.col]) * n1 + (i[C.col] - i[C.row]) % n1) * n2
           + (j[C.col] - j[C.row]) % n2)
    mean = np.bincount(key, C.data) / (n1 * n2)
    return sparse.csr_matrix((mean[key], (C.row, C.col)), shape=A.shape)


AVERAGED = {
    # f = f0 + beta y varies the entries within each stencil entry
    "beta-plane-schur": lambda: (_schur("right")[0], False, _operators("right", 16).cell_layout),
    # in a row of cell (0, 0), which the stencil is read from, and in another
    "perturbed-cell-0": lambda: _perturbed(_bloch_operators("right-16").cell_layout[2][0]),
    "perturbed-last-row": lambda: _perturbed(_bloch_operators("right-16").p2.n_dofs - 1),
}


@pytest.mark.parametrize("case", list(AVERAGED))
def test_bloch_inverts_the_translation_average(case):
    # these matrices are not translation invariant, but their symmetric parts
    # lie within _AVERAGE_WITHIN of their averages, whose inverse preconditions
    A, nullspace, layout = AVERAGED[case]()
    solver = _upgraded(Solver(A, nullspace=nullspace, lattice=layout))
    assert isinstance(solver._precondition, linalg._Bloch)
    rng = np.random.default_rng(16)
    x = rng.standard_normal(A.shape[0])
    average = _translation_average(solver.sym, layout)
    assert np.linalg.norm(solver._precondition(average @ x) - x) <= 1e-11 * np.linalg.norm(x)
    b = rng.standard_normal(A.shape[0])
    x = solver.solve(b, tol=1e-12)
    assert np.linalg.norm(b - A @ x) <= 1e-12 * np.linalg.norm(b)


def _workload_step(beta=1e-12, dt=600.0):
    """A midpoint stepper on the beta-plane workload's 32 x 64 equilateral
    torus (100 km cells, f0 = 1e-4, c2 = 1e5), its parameters, and the
    seed-41 random state."""
    mesh = build_equilateral_torus(32, 64, 1e5)
    ops = fem.operators(mesh)
    params = SweParams(f0=1e-4, beta=beta, c2=1e5)
    rng = np.random.default_rng(41)
    state = dynamics.State(fem.Field(ops.v, rng.standard_normal(ops.v.n_dofs)),
                           fem.Field(ops.p2, rng.standard_normal(ops.p2.n_dofs)), 0.0)
    return dynamics._Stepper(mesh, dt, params), params, state


def _past_the_average():
    """The beta-plane Schur complement of the workload's torus at beta = 1e-10
    and dt = 2e4 s, whose symmetric part deviates from its translation
    average by 0.76 of max|S|."""
    stepper = _workload_step(1e-10, 2e4)[0]
    return stepper.solver.A, False, stepper.ops.cell_layout, stepper.ops.p1_prolongation


REFUSED = {
    # not a lattice: its layout is None
    "jittered": lambda: _stiffness(_operators("jittered", 16), _operators("jittered", 16).cell_layout),
    "beta-plane-past-the-average": _past_the_average,
    # L of a renumbered torus under the layout of the torus as built: its own
    # layout is recognised, but this one does not fit its numbering
    "renumbered": lambda: _stiffness(fem.operators(renumbered_torus(BLOCH_TORI["right-16"]())),
                                     _bloch_operators("right-16").cell_layout),
}


@pytest.mark.parametrize("case", list(REFUSED))
def test_bloch_is_refused_and_the_solve_still_passes(case, monkeypatch):
    A, nullspace, layout, coarse = REFUSED[case]()
    # every refusal comes before any FFT
    monkeypatch.setattr(np.fft, "rfft2", None)
    if case == "jittered":
        assert layout is None
    else:
        assert linalg._Bloch.build(Solver(A).sym, layout, nullspace) is None
    solver = Solver(A, nullspace=nullspace, coarse=coarse, lattice=layout)
    b = np.random.default_rng(16).standard_normal(A.shape[0])
    b = b - b.mean() if nullspace else b
    x = solver.solve(b, tol=1e-12)
    assert np.linalg.norm(b - A @ x) <= 1e-12 * np.linalg.norm(b)
    # the solve's Jacobi iterations passed the count; the V-cycle took over
    assert isinstance(solver._precondition, linalg._VCycle)


@pytest.mark.parametrize("matrix", ["M+kappa L", "L"])
def test_a_solve_that_switches_midway_agrees_with_jacobi(matrix):
    # the inner solve goes on from its Jacobi iterate under the Bloch solve
    ops = _bloch_operators("right-16")
    A, nullspace = _lattice_matrix(ops, matrix)
    solver = Solver(A, nullspace=nullspace, lattice=ops.cell_layout)
    calls = _count_iterations(solver)
    b = np.random.default_rng(17).standard_normal(ops.p2.n_dofs)
    b = b - b.mean() if nullspace else b
    x = solver.solve(b, tol=1e-12)
    jacobi = len(calls) - _bloch_count(calls)
    assert jacobi == linalg._SWITCH_AFTER and isinstance(calls[-1], linalg._Bloch)
    assert np.linalg.norm(b - A @ x) <= 1e-12 * np.linalg.norm(b)
    ref = Solver(A, nullspace=nullspace)
    assert isinstance(ref._precondition, functools.partial)
    x_ref = ref.solve(b, tol=1e-12)
    assert np.linalg.norm(x - x_ref) <= 1e-10 * np.linalg.norm(x_ref)


@pytest.mark.parametrize("case", ["beta-plane-past-the-average", "renumbered"])
def test_refused_bloch_without_coarse_keeps_jacobi(case):
    # offered no V-cycle, the solver keeps Jacobi and never builds again
    A, nullspace, layout, _ = REFUSED[case]()
    solver = Solver(A, nullspace=nullspace, lattice=layout)
    b = np.random.default_rng(16).standard_normal(A.shape[0])
    b = b - b.mean() if nullspace else b
    for _ in range(2):
        x = solver.solve(b, tol=1e-12)
        assert np.linalg.norm(b - A @ x) <= 1e-12 * np.linalg.norm(b)
        assert isinstance(solver._precondition, functools.partial) and solver._better is None


@pytest.mark.parametrize("value", [np.inf, np.nan])
@pytest.mark.parametrize("mesh", ["right", "jittered"])
def test_solver_refuses_a_matrix_that_is_not_finite(mesh, value):
    # as from an overflowed step: refused at construction, before a V-cycle
    # is built from it or a solve runs to its iteration cap, and without a
    # warning
    ops = fem.operators(build_right_triangle_torus(16, 16, 1.0, 1.0) if mesh == "right"
                        else jittered_torus(16, seed=1))
    A = (ops.M + 3.0 * ops.L).tocsr()
    A.data[5] = value
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SolverError, match="matrix is not finite") as info:
            Solver(A, coarse=ops.p1_prolongation, lattice=ops.cell_layout)
    assert info.value.iterations == 0


@functools.lru_cache(maxsize=None)
def _ocean_operators(kind, n1, n2=None):
    """The operators of an n1 x n2 torus of 100 km cells, square by default."""
    n2 = n2 or n1
    if kind == "right":
        return fem.operators(build_right_triangle_torus(n1, n2, n1 * 1e5, n2 * 1e5))
    return fem.operators(build_equilateral_torus(n1, n2, 1e5))


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(["right", "equilateral"]), st.integers(min_value=8, max_value=16),
       st.floats(min_value=1e-12, max_value=1e-11), st.floats(min_value=600.0, max_value=3000.0),
       st.integers(min_value=0, max_value=10_000))
def test_averaged_bloch_solve_is_symmetric_positive_definite(kind, n, beta, dt, seed):
    # beta-plane Schur complements whose symmetric parts deviate from their
    # translation averages by at most 3.6e-3 of max|S| (beta = 1e-11 and
    # dt = 3000 s on the 16 x 16 right torus)
    ops = _ocean_operators(kind, n)
    stepper = dynamics._Stepper(ops.p2.mesh, dt, SweParams(f0=1e-4, beta=beta, c2=1e5))
    B = _upgraded(stepper.solver)._precondition
    assert isinstance(B, linalg._Bloch)
    rng = np.random.default_rng(seed)
    x, y = _mean_free(rng, ops.p2.n_dofs), _mean_free(rng, ops.p2.n_dofs)
    Bx, By = B(x), B(y)
    scale = max(np.linalg.norm(x) * np.linalg.norm(By), np.linalg.norm(y) * np.linalg.norm(Bx))
    assert abs(x @ By - y @ Bx) <= 1e-12 * scale
    assert x @ Bx > 0.0


# --------------------------------------------------------------------------
# the definite V-cycle on midpoint Schur complements past the Courant limit


@functools.lru_cache(maxsize=None)
def _schur(kind):
    """The beta-plane midpoint Schur complement S (it has a skew part) of a
    16 x 16 torus at the gravity-wave Courant number sqrt(c2) dt / h = 4,
    with the P2 -> P1 interpolation of its mesh."""
    ops = _operators(kind, 16)
    h = 1.0 / 16
    params = SweParams(f0=1.0, beta=0.5, c2=1.0)
    S = dynamics._Stepper(ops.p2.mesh, 4.0 * h, params).solver.A
    # more unknowns than the coarsest level takes, so that there is a hierarchy
    assert S.shape[0] > 300 and abs(S - S.T).max() > 0.0
    return S, ops.p1_prolongation


SCHUR_KINDS = ["right", "equilateral", "jittered"]


@pytest.mark.parametrize("kind", SCHUR_KINDS)
def test_symmetric_part_shares_a_symmetric_pattern(kind):
    S, _ = _schur(kind)
    solver = Solver(S)
    assert np.shares_memory(solver.sym.indices, solver.A.indices)
    assert np.shares_memory(solver.sym.indptr, solver.A.indptr)
    assert np.array_equal(solver.sym.toarray(), (0.5 * (S + S.T)).toarray())
    # a pattern that is not symmetric takes the sparse sum
    A = sparse.csr_matrix(np.array([[2.0, 0.0, 1.0], [-2.0, 2.0, 0.0], [1.0, 0.0, 3.0]]))
    assert np.array_equal(Solver(A).sym.toarray(), [[2.0, -1.0, 1.0], [-1.0, 2.0, 0.0], [1.0, 0.0, 3.0]])


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(SCHUR_KINDS), st.integers(min_value=0, max_value=10_000))
def test_definite_vcycle_is_symmetric_positive_definite(kind, seed):
    S, R = _schur(kind)
    B = _vcycle(S, R)
    rng = np.random.default_rng(seed)
    x, y = rng.standard_normal(S.shape[0]), rng.standard_normal(S.shape[0])
    Bx, By = B(x), B(y)
    scale = max(np.linalg.norm(x) * np.linalg.norm(By), np.linalg.norm(y) * np.linalg.norm(Bx))
    assert abs(x @ By - y @ Bx) <= 1e-12 * scale
    # definite, the constants included
    ones = np.ones(S.shape[0])
    assert x @ Bx > 0.0 and ones @ B(ones) > 0.0


@pytest.mark.parametrize("tol", [1e-12, 1e-14])
@pytest.mark.parametrize("kind", SCHUR_KINDS)
def test_definite_multigrid_meets_the_true_residual(kind, tol):
    S, R = _schur(kind)
    b = np.random.default_rng(9).standard_normal(S.shape[0])
    solver = _upgraded(Solver(S, coarse=R))
    assert isinstance(solver._precondition, linalg._VCycle) and solver._loose
    x = solver.solve(b, tol=tol)
    assert np.linalg.norm(b - S @ x) <= tol * np.linalg.norm(b)


@pytest.mark.parametrize("kind", SCHUR_KINDS)
def test_definite_multigrid_agrees_with_jacobi(kind):
    S, R = _schur(kind)
    b = np.random.default_rng(10).standard_normal(S.shape[0])
    solver = _upgraded(Solver(S, coarse=R))
    assert isinstance(solver._precondition, linalg._VCycle)
    # level 0's correction is built from the given prolongation
    A0, smoother, _, Q0 = solver._precondition.levels[0]
    expected = R - sparse.diags(smoother) @ (A0 @ R)
    assert abs(Q0 - expected).max() <= 1e-14 * abs(expected).max()
    x = solver.solve(b, tol=1e-12)
    ref = Solver(S).solve(b, tol=1e-12)
    assert np.linalg.norm(x - ref) <= 1e-10 * np.linalg.norm(ref)


@pytest.mark.parametrize("tol", [1e-12, 1e-14])
@pytest.mark.parametrize("scale", [10, 100, 1000])
@pytest.mark.parametrize("kind", SCHUR_KINDS)
def test_definite_multigrid_meets_the_true_residual_for_a_strong_skew_part(kind, scale, tol):
    # the skew part of the Schur complement scaled up (scale 1 is the test
    # above): the loose phase hands over to exact CGW, which meets tol
    S, R = _schur(kind)
    A = (0.5 * (S + S.T) + (0.5 * scale) * (S - S.T)).tocsr()
    b = np.random.default_rng(9).standard_normal(S.shape[0])
    solver = _upgraded(Solver(A, coarse=R))
    assert isinstance(solver._precondition, linalg._VCycle) and solver._loose
    x = solver.solve(b, tol=tol)
    assert np.linalg.norm(b - A @ x) <= tol * np.linalg.norm(b)


def test_beta_plane_step_takes_few_vcycles():
    # the beta-plane workload's step at dt = 600 s: the skew part is weak
    # (|Sym^-1 Skew| near 7e-4), and the loose phase runs to the end.  With
    # exact inner solves throughout, these three steps took 38, 36 and 35
    # V-cycles; 60 % of the least is 21.  The stepper inverts the translation
    # average of S by Bloch blocks on this lattice, so the V-cycle is built here
    stepper, _, state = _workload_step()
    stepper.solver = _upgraded(Solver(stepper.solver.A, coarse=stepper.ops.p1_prolongation))
    assert isinstance(stepper.solver._precondition, linalg._VCycle)
    calls = _count_iterations(stepper.solver)
    for _ in range(3):
        del calls[:]
        state = stepper.step(state, 1e-12)
        assert 0 < len(calls) <= 21


def test_lanczos_damping_takes_fewer_vcycles_per_beta_plane_step():
    # the set-up above: with omega from the Gershgorin bound of D^-1 A, each
    # of these steps took 16 V-cycles; with the Ritz value, 12 to 13
    stepper, _, state = _workload_step()
    stepper.solver = _upgraded(Solver(stepper.solver.A, coarse=stepper.ops.p1_prolongation))
    assert isinstance(stepper.solver._precondition, linalg._VCycle)
    calls = _count_iterations(stepper.solver)
    for _ in range(3):
        del calls[:]
        state = stepper.step(state, 1e-12)
        assert 0 < len(calls) <= 14


def test_beta_plane_step_takes_few_bloch_applications():
    # the set-up above: the symmetric part of S deviates from its translation
    # average by 4.9e-5 of max|S|.  The first step's Jacobi iterations pass
    # the count, and the stepper switches to the Bloch inverse of the
    # average; then the loose phase takes 4 applications per step, where
    # exact CGW took 8 and the V-cycle 12 to 13
    stepper, params, state = _workload_step()
    calls = _count_iterations(stepper.solver)
    e0 = dynamics.energy(state, params)
    state = stepper.step(state, 1e-12)
    assert calls[:linalg._SWITCH_AFTER] == [calls[0]] * linalg._SWITCH_AFTER
    assert _bloch_count(calls) == len(calls) - linalg._SWITCH_AFTER
    assert stepper.solver._loose and calls[-1].averaged
    for _ in range(3):
        del calls[:]
        state = stepper.step(state, 1e-12)
        assert 0 < _bloch_count(calls) == len(calls) <= 5
        assert abs(dynamics.energy(state, params) - e0) <= 1e-10 * e0


@functools.lru_cache(maxsize=None)
def _strong_skew_schur():
    """The beta-plane Schur complement of the 16 x 32 equilateral torus of
    100 km cells at beta = 1e-11 and dt = 3000 s (f0 = 1e-4, c2 = 1e5): it
    deviates from its translation average by 6.9e-3 of max|S|, and
    |Sym^-1 Skew| is near 1.9e-2, 26 times the workload step's."""
    ops = _ocean_operators("equilateral", 16, 32)
    params = SweParams(f0=1e-4, beta=1e-11, c2=1e5)
    return dynamics._Stepper(ops.p2.mesh, 3e3, params).solver.A, ops.cell_layout


@pytest.mark.parametrize("tol", [1e-12, 1e-14])
@pytest.mark.parametrize("scale", [1, 10, 100, 1000])
def test_loose_bloch_solve_meets_the_true_residual_for_a_strong_skew_part(scale, tol):
    # the loose phase under the averaged Bloch inverse: its steps stop cutting
    # the residual by _LOOSE_CUT, and exact CGW takes over and meets tol
    S, layout = _strong_skew_schur()
    A = (0.5 * (S + S.T) + (0.5 * scale) * (S - S.T)).tocsr()
    solver = _upgraded(Solver(A, lattice=layout))
    assert solver._loose and solver._precondition.averaged
    b = np.random.default_rng(9).standard_normal(S.shape[0])
    x = solver.solve(b, tol=tol)
    assert np.linalg.norm(b - A @ x) <= tol * np.linalg.norm(b)


@pytest.mark.parametrize("kind,n1,n2", [("equilateral", 32, 64), ("right", 48, 48)])
def test_loose_bloch_step_matches_jacobi_at_a_strong_skew_part(kind, n1, n2):
    # beta = 1e-11 and dt = 3000 s on the crossover tori of the averaged
    # Bloch solve (32 x 64 equilateral, 48 x 48 right): deviations 1.6e-2 and
    # 1.3e-2 of max|S|, the largest that the build accepts there
    ops = _ocean_operators(kind, n1, n2)
    mesh, params, dt = ops.p2.mesh, SweParams(f0=1e-4, beta=1e-11, c2=1e5), 3e3
    stepper, jacobi = dynamics._Stepper(mesh, dt, params), dynamics._Stepper(mesh, dt, params)
    jacobi.solver = Solver(stepper.solver.A)
    rng = np.random.default_rng(46)
    state = ref = dynamics.State(fem.Field(ops.v, rng.standard_normal(ops.v.n_dofs)),
                                 fem.Field(ops.p2, rng.standard_normal(ops.p2.n_dofs)), 0.0)
    e0 = dynamics.energy(state, params)
    for _ in range(3):
        state, ref = stepper.step(state, 1e-12), jacobi.step(ref, 1e-12)
        assert abs(dynamics.energy(state, params) - e0) <= 1e-10 * e0
    assert stepper.solver._loose and isinstance(stepper.solver._precondition, linalg._Bloch)
    for a, b in ((state.u, ref.u), (state.eta, ref.eta)):
        assert np.linalg.norm(a.coeffs - b.coeffs) <= 1e-10 * np.linalg.norm(b.coeffs)


def _exact_jacobi_radius(A):
    """The largest eigenvalue of D^-1/2 A D^-1/2, by a dense solve."""
    scale = 1.0 / np.sqrt(A.diagonal())
    return np.linalg.eigvalsh(scale[:, None] * A.toarray() * scale)[-1]


@pytest.mark.parametrize("matrix", ["right", "equilateral", "jittered",
                                    *(f"schur-{k}" for k in SCHUR_KINDS)])
def test_smoother_damping_reads_a_ritz_value_of_the_jacobi_radius(matrix):
    # the largest Ritz value of ten Lanczos steps lies below the spectral
    # radius of D^-1 A and, on these matrices, within 10 % of it
    if matrix.startswith("schur-"):
        A = Solver(_schur(matrix[6:])[0]).sym
    else:
        A = _operators(matrix, 12).L
    smoother = linalg._damped_inv_diag(A)
    omega = smoother * A.diagonal()
    assert np.ptp(omega) <= 1e-15 * omega.max()
    rho = 4.0 / (3.0 * omega.max())
    exact = _exact_jacobi_radius(A)
    assert 0.9 * exact <= rho <= exact * (1.0 + 1e-12)
    # the Lanczos run starts from a fixed vector, so the set-up is deterministic
    assert np.array_equal(linalg._damped_inv_diag(A), smoother)


def _rossby_start(mesh, ops, start, psi_hat):
    """The lattice mode (1, 1), or the Gaussian bump exp(-|x - x_c|^2 / (4 dx)^2)
    about the centre x_c of the torus, less its integral mean."""
    if start == "mode":
        return np.real(psi_hat)
    x = ops.p2.dof_points() - 0.5 * mesh.lattice.sum(axis=0)
    bump = np.exp(-(x * x).sum(axis=1) / (4e5) ** 2)
    return bump - ops.p2_mean(bump)


@pytest.mark.parametrize("start,per_step", [("mode", 3), ("bump", 8)])
def test_rossby_trajectory_takes_few_bloch_applications(monkeypatch, start, per_step):
    # K = L + M / L_R^2 is translation invariant on the beta-plane workload's
    # 32 x 64 torus.  The first inner solve switches from Jacobi to its Bloch
    # blocks, and the 40 steps take 80 Bloch applications from the lattice
    # mode (1, 1) and 240 from the bump.  Jacobi took 2392 and 36,845 (60 and
    # 921 per step).  The symmetric part K is exactly invariant, so the solves
    # keep exact CGW from the start
    mesh = build_equilateral_torus(32, 64, 1e5)
    ops = fem.operators(mesh)
    params = RossbyParams(f0=1e-4, beta=1e-12, c2=1e5)
    omega, psi_hat = bloch.lattice_rossby_mode(mesh, 1, 1, params)
    counted = []

    class CountingSolver(Solver):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            # Jacobi, with the Bloch solve pending
            assert self._better is not None
            counted.append((self, _count_iterations(self)))

    monkeypatch.setattr(linalg, "Solver", CountingSolver)
    dt = 0.05 / abs(omega)
    psi0 = fem.Field(ops.p2, _rossby_start(mesh, ops, start, psi_hat))
    traj = dynamics.solve_rossby(psi0, dt=dt, T=40 * dt, params=params)
    [(solver, calls)] = counted
    assert isinstance(calls[-1], linalg._Bloch) and not solver._loose
    assert len(calls) - _bloch_count(calls) == linalg._SWITCH_AFTER
    assert 0 < _bloch_count(calls) <= 40 * per_step
    assert np.ptp(traj.invariant) <= 1e-12 * traj.invariant[0]


def test_rossby_trajectory_off_the_lattice_takes_the_vcycle(monkeypatch):
    # a jittered 16 x 16 torus of 100 km cells is no cell torus: the first
    # solve's Jacobi iterations pass the count, and the solver builds the
    # V-cycle on K's symmetric part.  From the bump, 40 steps took 1804
    # V-cycles after those; Jacobi took 42,416 (1060 per step)
    base = jittered_torus(16, seed=1)
    mesh = Mesh(base.vertices * 1.6e6, base.triangles, base.shifts, base.lattice * 1.6e6)
    ops = fem.operators(mesh)
    params = RossbyParams(f0=1e-4, beta=1e-12, c2=1e5)
    k = 2.0 * np.pi * np.ones(2) / 1.6e6
    dt = 0.05 * (k @ k + params.lr2_inv) / (params.beta * k[0])
    counted = []

    class CountingSolver(Solver):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            counted.append((self, _count_iterations(self)))

    monkeypatch.setattr(linalg, "Solver", CountingSolver)
    psi0 = fem.Field(ops.p2, _rossby_start(mesh, ops, "bump", None))
    traj = dynamics.solve_rossby(psi0, dt=dt, T=40 * dt, params=params)
    [(solver, calls)] = counted
    jacobi = linalg._SWITCH_AFTER
    assert isinstance(calls[0], functools.partial) and calls[:jacobi] == [calls[0]] * jacobi
    assert all(isinstance(p, linalg._VCycle) for p in calls[jacobi:])
    assert len(calls) <= 40 * 50 + jacobi
    assert np.ptp(traj.invariant) <= 1e-11 * traj.invariant[0]


def _textbook_vcycle(B, r, level=0):
    """The V(1,1)-cycle in its four-product form on B's levels, with P = R^T:
    smooth, restrict r - A x, prolong the coarse correction, smooth again."""
    if level == len(B.levels):
        return B.coarsest(r)
    A, smoother, R, _ = B.levels[level]
    x = smoother * r
    x = x + R.T @ _textbook_vcycle(B, R @ (r - A @ x), level + 1)
    return x + smoother * (r - A @ x)


@pytest.mark.parametrize("hierarchy", [*SCHUR_KINDS, "stiffness"])
def test_folded_vcycle_matches_the_textbook_cycle(hierarchy):
    # the Schur complements of the 16 x 16 tori, and the nullspace hierarchy
    # of L on the 32 x 32 right torus, whose aggregation levels smooth P
    if hierarchy == "stiffness":
        # L_solver takes the Bloch solve on a lattice, so the V-cycle is built here
        ops = _operators("right", 32)
        B = _vcycle(ops.L, ops.p1_prolongation, nullspace=True)
        assert len(B.levels) >= 2
    else:
        B = _vcycle(*_schur(hierarchy))
    for A, smoother, R, Q in B.levels:
        ref = R.T - sparse.diags(smoother) @ (A @ R.T)
        assert abs(Q - ref).max() <= 1e-14 * abs(ref).max()
    rng = np.random.default_rng(13)
    for _ in range(3):
        r = rng.standard_normal(B.levels[0][0].shape[0])
        ref = _textbook_vcycle(B, r)
        assert np.linalg.norm(B(r) - ref) <= 1e-13 * np.linalg.norm(ref)


# the nullspace hierarchies of L whose coarsest level the test below checks
COARSEST_MESHES = {
    "right-32": lambda: build_right_triangle_torus(32, 32, 1.0, 1.0),
    "equilateral-32x64": lambda: build_equilateral_torus(32, 64, 1.0 / 32),
    "jittered-24": lambda: jittered_torus(24),
    "right-8": lambda: build_right_triangle_torus(8, 8, 1.0, 1.0),
}


@pytest.mark.parametrize("mesh", list(COARSEST_MESHES))
def test_shifted_coarsest_inverse_is_the_pseudo_inverse(mesh):
    # the nullspace hierarchy's coarsest level inverts A_c + s 1 1^T / n_c;
    # on mean-free vectors that is the pseudo-inverse of A_c.  The 8 x 8 torus
    # has no levels, so A_c is L itself.  L_solver takes the Bloch solve on the
    # lattices, so the V-cycle is built here
    ops = fem.operators(COARSEST_MESHES[mesh]())
    B = _vcycle(ops.L, ops.p1_prolongation, nullspace=True)
    if B.levels:
        A, _, R, _ = B.levels[-1]
        Ac = (R @ A @ R.T).toarray()
    else:
        Ac = ops.L.toarray()
    assert B.coarsest.args[0].shape == Ac.shape
    # the default cut-off would keep the nullspace: its eigenvalue rounds to
    # 1.1e-15 of the largest on the 222 unknowns of the equilateral level
    pinv = np.linalg.pinv(Ac, rcond=1e-10, hermitian=True)
    rng = np.random.default_rng(14)
    for _ in range(3):
        r = _mean_free(rng, Ac.shape[0])
        x, ref = B.coarsest(r), pinv @ r
        assert np.linalg.norm(x - ref) <= 1e-12 * np.linalg.norm(ref)
        assert abs(x.mean()) <= 1e-14 * np.linalg.norm(x)


def test_small_definite_matrix_is_solved_in_one_step():
    # at most 300 unknowns: the coarsest level is the matrix, inverted exactly,
    # here the symmetric f-plane Schur complement M + kappa L past the Courant
    # limit.  The first solve switches from Jacobi to the V-cycle, which then
    # solves in one application
    ops = fem.operators(TORI["right"](8))
    S = dynamics._Stepper(ops.p2.mesh, 0.5, SweParams(f0=1.0, c2=1.0)).solver.A
    solver = Solver(S, coarse=ops.p1_prolongation)
    calls = _count_iterations(solver)
    rng = np.random.default_rng(12)
    for jacobi in (linalg._SWITCH_AFTER, 0):
        del calls[:]
        b = rng.standard_normal(ops.p2.n_dofs)
        x = solver.solve(b, tol=1e-12)
        assert len(calls) == jacobi + 1 and isinstance(calls[-1], linalg._VCycle)
        assert np.linalg.norm(b - S @ x) <= 1e-12 * np.linalg.norm(b)


def test_vcycle_ends_where_aggregation_stalls():
    # at Courant number 1.9 the third level of this Schur complement is
    # mass-dominated, and aggregation would keep all of its 384 unknowns
    ops = fem.operators(build_right_triangle_torus(48, 48, 1.0, 1.0))
    S = dynamics._Stepper(ops.p2.mesh, 1.9 / 48, SweParams(f0=1.0, beta=0.5, c2=1.0)).solver.A
    solver = _upgraded(Solver(S, coarse=ops.p1_prolongation))
    B = solver._precondition
    assert isinstance(B, linalg._VCycle)
    assert [A.shape[0] for A, *_ in B.levels] == [9216, 2304]
    assert B.coarsest.func is np.multiply
    rng = np.random.default_rng(11)
    x, y = rng.standard_normal(S.shape[0]), rng.standard_normal(S.shape[0])
    assert abs(x @ B(y) - y @ B(x)) <= 1e-12 * np.linalg.norm(x) * np.linalg.norm(B(y))
    assert x @ B(x) > 0.0
    b = rng.standard_normal(S.shape[0])
    assert np.linalg.norm(b - S @ solver.solve(b, tol=1e-12)) <= 1e-12 * np.linalg.norm(b)


def test_no_module_imports_dense_or_sparse_linalg():
    # CG needs only products with the matrix; these imports add resident memory
    code = (
        "import pkgutil, importlib, sys, swelab\n"
        "for m in pkgutil.iter_modules(swelab.__path__):\n"
        "    importlib.import_module('swelab.' + m.name)\n"
        "bad = sorted({'scipy.sparse.linalg', 'scipy.linalg'} & set(sys.modules))\n"
        "print(len(list(pkgutil.iter_modules(swelab.__path__))), bad)\n"
    )
    src = str(Path(fem.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}, check=True).stdout
    count, bad = out.split(" ", 1)
    assert int(count) >= 7 and bad.strip() == "[]"
