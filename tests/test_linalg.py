import numpy as np
import pytest
import scipy.sparse as sparse
from hypothesis import given, settings
from hypothesis import strategies as st

from swelab.linalg import Solver, SolverError


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

