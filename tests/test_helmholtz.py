import numpy as np
import pytest
from hypothesis import given, settings

from swelab import fem, helmholtz, linalg
from swelab.mesh import build_equilateral_torus, build_right_triangle_torus

from .oracles import jittered_tori, jittered_torus, random_field, recompose, spurious_dimension

# the first two are below the coarsest multigrid size, so L_solver solves
# them directly; the last two build a multigrid hierarchy, and the jittered
# torus is not a lattice
MESHES = [
    build_equilateral_torus(4, 4, 0.5),
    build_right_triangle_torus(3, 4, 1.0, 1.0),
    build_right_triangle_torus(16, 16, 1.0, 1.0),
    jittered_torus(16, seed=1),
]


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
    # |u| = |E alpha| grows like 1/h and the solves stop at a relative tol;
    # on the first two meshes (|u| = 163, 256) this is tighter than 1e-9
    assert np.linalg.norm(parts.residual.coeffs) < 3e-12 * np.linalg.norm(u.coeffs)
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


@settings(max_examples=20, deadline=None)
@given(mesh=jittered_tori(2, 16))
def test_gradients_orthogonal_to_rotated_gradients_on_jittered_torus(mesh):
    # E^T Mv P E = 0 holds on any triangulation, not only on lattices
    ops = fem.operators(mesh)
    cross = ops.Et @ ops.Mv @ ops.P @ ops.E
    assert abs(cross).max() <= 1e-13 * abs(ops.L).max()


@settings(max_examples=6, deadline=None)
@given(mesh=jittered_tori(2, 10))
def test_spurious_dimension_on_jittered_torus(mesh):
    # n <= 10 keeps the brute-force count within its 200-face limit
    assert spurious_dimension(mesh) == 2 * mesh.n_f


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


def test_energies_and_projection_call_decompose_once(monkeypatch):
    # the split has one path: both go through the module attribute, as a
    # tracer that wraps it would see them
    mesh = MESHES[2]
    u = _random_velocity(mesh, 21)
    calls, results = [], []
    decompose = helmholtz.decompose

    def counting(*args, **kwargs):
        calls.append(args[0])
        results.append(decompose(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(helmholtz, "decompose", counting)
    helmholtz.component_energies(u)
    assert calls == [u]
    pu = helmholtz.project_hp2(u)
    assert calls == [u, u]
    assert np.array_equal(pu.coeffs, u.coeffs - results[-1].residual.coeffs)


@pytest.mark.parametrize("mesh", MESHES)
def test_energies_are_those_of_the_components(mesh):
    # each energy is 1/2 c^T Mv c of the velocity c its component of
    # decompose(u) contributes, although component_energies takes the
    # potentials' energies through L
    ops = fem.operators(mesh)
    u = _random_velocity(mesh, 23)
    parts = helmholtz.decompose(u)
    pieces = {
        "mean": ops.constant_field(parts.mean),
        "divergent": ops.E @ parts.phi.coeffs,
        "rotational": ops.P @ (ops.E @ parts.psi.coeffs),
        "residual": parts.residual.coeffs,
    }
    e = helmholtz.component_energies(u)
    total = 0.5 * u.coeffs @ (ops.Mv @ u.coeffs)
    for name, c in pieces.items():
        assert abs(e[name] - 0.5 * c @ (ops.Mv @ c)) <= 1e-13 * total, name


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
