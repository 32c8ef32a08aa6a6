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


def test_solver_splits_asymmetric():
    # a mild skew part is split off and iterated to the solution of A x = b
    A = sparse.csr_matrix(np.array([[2.0, 1.0], [0.0, 2.0]]))
    x = Solver(A).solve(np.ones(2), tol=1e-13)
    assert np.allclose(x, [0.25, 0.5], rtol=0, atol=1e-13)
    # a strong one makes the splitting diverge, and the error says why
    strong = Solver(sparse.csr_matrix(np.array([[1.0, 3.0], [-3.0, 1.0]])))
    with pytest.raises(SolverError, match="skew-symmetric part"):
        strong.solve(np.ones(2))


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

