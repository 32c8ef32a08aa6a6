import numpy as np
import pytest

from swelab import fem, helmholtz, linalg
from swelab.mesh import build_equilateral_torus, build_right_triangle_torus

from .oracles import random_field, recompose, spurious_dimension

MESHES = [build_equilateral_torus(4, 4, 0.5), build_right_triangle_torus(3, 4, 1.0, 1.0)]


def _random_velocity(mesh, seed):
    ops = fem.operators(mesh)
    return random_field(ops.v, seed=seed)


@pytest.mark.parametrize("mesh", MESHES)
def test_roundtrip_and_orthogonality(mesh):
    ops = fem.operators(mesh)
    u = _random_velocity(mesh, 3)
    parts = helmholtz.decompose(u)
    back = recompose(parts, mesh)
    assert np.abs(back.coeffs - u.coeffs).max() < 1e-10

    Mv, E, P = ops.Mv, ops.E, ops.P
    mean_vec = ops.constant_field(parts.mean)
    g_phi = E @ parts.phi.coeffs
    g_psi = P @ (E @ parts.psi.coeffs)
    res = parts.residual.coeffs
    pieces = [mean_vec, g_phi, g_psi, res]
    scale = max(np.linalg.norm(u.coeffs), 1.0)
    for i in range(4):
        for j in range(i + 1, 4):
            ip = pieces[i] @ (Mv @ pieces[j])
            assert abs(ip) < 1e-11 * scale**2, (i, j)

    # energies add up (Pythagoras in the mass inner product)
    total = u.coeffs @ (Mv @ u.coeffs)
    partial = sum(p @ (Mv @ p) for p in pieces)
    assert np.isclose(total, partial, rtol=1e-12)


def test_decompose_reuses_one_prepared_solver(monkeypatch):
    mesh = build_equilateral_torus(4, 4, 0.5)
    solver = fem.operators(mesh).L_solver
    built = []
    monkeypatch.setattr(linalg.Solver, "__init__", lambda *a, **k: built.append(a))
    u1, u2 = _random_velocity(mesh, 5), _random_velocity(mesh, 6)
    first = helmholtz.decompose(u1)
    for u in (u2, u1):
        parts = helmholtz.decompose(u)
        assert np.abs(recompose(parts, mesh).coeffs - u.coeffs).max() < 1e-10
    assert built == [] and fem.operators(mesh).L_solver is solver
    assert np.array_equal(parts.phi.coeffs, first.phi.coeffs)
    assert np.array_equal(parts.psi.coeffs, first.psi.coeffs)


@pytest.mark.parametrize("mesh", MESHES)
def test_gradient_recovers_potential(mesh):
    ops = fem.operators(mesh)
    alpha = random_field(ops.p2, seed=8).coeffs
    u = fem.Field(ops.v, ops.E @ alpha)
    parts = helmholtz.decompose(u)
    mean = ops.p2_mean(alpha)
    assert np.abs(parts.phi.coeffs - (alpha - mean)).max() < 1e-9
    assert np.linalg.norm(parts.psi.coeffs) < 1e-9 * max(np.linalg.norm(alpha), 1)
    assert np.linalg.norm(parts.residual.coeffs) < 1e-9
    assert np.linalg.norm(parts.mean) < 1e-10


def test_rotated_gradient_recovers_stream():
    mesh = MESHES[0]
    ops = fem.operators(mesh)
    beta = random_field(ops.p2, seed=12).coeffs
    u = fem.Field(ops.v, ops.P @ (ops.E @ beta))
    parts = helmholtz.decompose(u)
    mean = ops.p2_mean(beta)
    assert np.abs(parts.psi.coeffs - (beta - mean)).max() < 1e-9
    assert np.linalg.norm(parts.phi.coeffs) < 1e-9 * max(np.linalg.norm(beta), 1)


def test_shift_by_gradient_changes_only_phi():
    mesh = MESHES[1]
    ops = fem.operators(mesh)
    u = _random_velocity(mesh, 21)
    alpha = random_field(ops.p2, seed=22).coeffs
    shifted = fem.Field(ops.v, u.coeffs + ops.E @ alpha)
    a = helmholtz.decompose(u)
    b = helmholtz.decompose(shifted)
    da = alpha - ops.p2_mean(alpha)
    assert np.abs(b.phi.coeffs - a.phi.coeffs - da).max() < 1e-9
    assert np.abs(b.psi.coeffs - a.psi.coeffs).max() < 1e-9
    assert np.abs(b.residual.coeffs - a.residual.coeffs).max() < 1e-9
    assert np.allclose(b.mean, a.mean, atol=1e-12)


@pytest.mark.parametrize("mesh", MESHES)
def test_project_hp2_idempotent_and_kills_residual(mesh):
    ops = fem.operators(mesh)
    u = _random_velocity(mesh, 5)
    pu = helmholtz.project_hp2(u)
    ppu = helmholtz.project_hp2(pu)
    assert np.abs(ppu.coeffs - pu.coeffs).max() < 1e-9
    parts = helmholtz.decompose(pu)
    assert np.linalg.norm(parts.residual.coeffs) < 1e-9

    # resolved directions pass through untouched
    alpha = random_field(ops.p2, seed=6).coeffs
    g = fem.Field(ops.v, ops.E @ alpha)
    assert np.abs(helmholtz.project_hp2(g).coeffs - g.coeffs).max() < 1e-9


def test_residual_is_mass_orthogonal_to_resolved_space():
    mesh = MESHES[0]
    ops = fem.operators(mesh)
    u = _random_velocity(mesh, 30)
    parts = helmholtz.decompose(u)
    r = parts.residual.coeffs
    MvR = ops.Mv @ r
    assert np.abs(ops.E.T @ MvR).max() < 1e-11
    assert np.abs(ops.E.T @ (ops.P.T @ MvR)).max() < 1e-11
    assert abs(ops.constant_field((1.0, 0.0)) @ MvR) < 1e-11
    assert abs(ops.constant_field((0.0, 1.0)) @ MvR) < 1e-11


@pytest.mark.parametrize(
    "mesh,expected",
    [(build_right_triangle_torus(2, 2, 1.0, 1.0), 16),
     (build_equilateral_torus(3, 3, 1.0), 36)],
)
def test_spurious_dimension_counts(mesh, expected):
    # dim = 2 per node minus resolved directions: 12 n_v - 2 (2 n_v - 1) - 2
    assert spurious_dimension(mesh) == expected


def test_spurious_dimension_matches_decomposition_rank():
    mesh = build_right_triangle_torus(2, 2, 1.0, 1.0)
    ops = fem.operators(mesh)
    # brute force: resolved space = span{const_x, const_y, E, PE}
    cols = [ops.constant_field((1.0, 0.0)), ops.constant_field((0.0, 1.0))]
    E = ops.E.toarray()
    PE = (ops.P @ ops.E).toarray()
    cols.extend(E.T)
    cols.extend(PE.T)
    A = np.column_stack(cols)
    rank = np.linalg.matrix_rank(A, tol=1e-8)
    assert spurious_dimension(mesh) == ops.v.n_dofs - rank


@pytest.mark.parametrize("mesh", MESHES)
def test_component_energies_sum(mesh):
    u = _random_velocity(mesh, 17)
    ops = fem.operators(mesh)
    e = helmholtz.component_energies(u, c2=2.0)
    assert set(e) == {"mean", "divergent", "rotational", "residual"}
    total = 0.5 * u.coeffs @ (ops.Mv @ u.coeffs)
    assert np.isclose(sum(e.values()), total, rtol=1e-11)
    assert all(v >= -1e-13 for v in e.values())


def test_component_energies_pure_components():
    mesh = MESHES[0]
    ops = fem.operators(mesh)
    beta = random_field(ops.p2, seed=2).coeffs
    u = fem.Field(ops.v, ops.P @ (ops.E @ beta))
    e = helmholtz.component_energies(u)
    assert e["rotational"] > 0
    assert e["divergent"] < 1e-12 * e["rotational"]
    assert e["mean"] < 1e-12 * e["rotational"]
    assert e["residual"] < 1e-12 * e["rotational"]
