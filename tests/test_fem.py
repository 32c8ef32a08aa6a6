import io
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swelab import ParameterError, fem
from swelab.mesh import (
    build_equilateral_torus,
    build_right_triangle_torus,
    read_mesh,
    write_mesh,
)

from . import oracles
from .oracles import (
    duffy_integrate,
    element_matrices_exact,
    monomial_integral,
    p1_vector_mass_exact,
    p2_value_exact,
    random_field,
    ref_p2_basis,
)

SKEWED = np.array([[0.0, 0.0], [0.75, 0.125], [0.25, 0.625]])
REF = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])


@pytest.mark.parametrize("degree", [1, 2, 3, 4, 5])
def test_quadrature_exact_for_monomials(degree):
    q = fem.quadrature_rule(degree)
    assert np.isclose(q.weights.sum(), 0.5, rtol=1e-14)
    assert np.all(q.points >= -1e-14)
    assert np.allclose(q.points.sum(axis=1), 1.0, atol=1e-14)
    for a in range(degree + 1):
        for b in range(degree + 1 - a):
            c = degree - a - b
            val = np.sum(q.weights * q.points[:, 0] ** a * q.points[:, 1] ** b
                         * q.points[:, 2] ** c)
            exact = monomial_integral(a, b, c, 0.5)
            assert np.isclose(val, exact, rtol=1e-13, atol=1e-16), (a, b, c)


def test_quadrature_rejects_unsupported_degree():
    with pytest.raises(ValueError):
        fem.quadrature_rule(99)


def test_ref_p2_basis_kronecker_and_partition():
    nodes = np.array([
        [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0],
        [0.0, 0.5, 0.5], [0.5, 0.0, 0.5], [0.5, 0.5, 0.0],
    ])
    for i, lam in enumerate(nodes):
        phi, dphi = ref_p2_basis(lam)
        expect = np.zeros(6)
        expect[i] = 1.0
        assert np.allclose(phi, expect, atol=1e-14)
        assert dphi.shape[0] == 6
    rng = np.random.default_rng(3)
    for _ in range(20):
        lam = rng.dirichlet([1, 1, 1])
        phi, dphi = ref_p2_basis(lam)
        assert np.isclose(phi.sum(), 1.0, atol=1e-13)
        assert np.allclose(dphi.sum(axis=0), 0.0, atol=1e-13)


def test_p2_basis_matches_polynomial_oracle():
    rng = np.random.default_rng(11)
    pts = rng.dirichlet([1, 1, 1], size=8)
    for lam in pts:
        phi, _ = ref_p2_basis(lam)
        xy = lam @ SKEWED
        for dof in range(6):
            assert np.isclose(phi[dof], p2_value_exact(SKEWED, dof, xy), atol=1e-12)


def _one_face(corners, quad=None):
    """Mass, stiffness, d/dx and d/dy blocks of one triangle from the batched
    kernels, each 6x6; the degree-4 rule unless quad is given."""
    quad = quad or fem.quadrature_rule(4)
    Jinv, area = fem._geometry(np.asarray(corners, dtype=float)[None])
    return (fem._p2_mass_blocks(area, quad)[0], fem._p2_stiffness_blocks(Jinv, area, quad)[0],
            fem._p2_ddx_blocks(Jinv, area, quad, np.array([1.0, 0.0]))[0],
            fem._p2_ddx_blocks(Jinv, area, quad, np.array([0.0, 1.0]))[0])


@pytest.mark.parametrize("corners", [REF, SKEWED])
def test_element_matrices_against_symbolic(corners):
    M, L, D1, D2 = element_matrices_exact(corners)
    Mh, Lh, D1h, D2h = _one_face(corners)
    assert np.allclose(Mh, M, atol=1e-14)
    assert np.allclose(Lh, L, atol=1e-12)
    assert np.allclose(D1h, D1, atol=1e-13)
    assert np.allclose(D2h, D2, atol=1e-13)


def test_element_mass_against_duffy():
    # dual route: duffy quadrature drives the same integrals a different way
    def entry(i, j):
        def f(x, y):
            lam = np.linalg.solve(
                np.vstack([SKEWED.T, np.ones(3)]), np.array([x, y, 1.0]))
            phi, _ = ref_p2_basis(lam)
            return phi[i] * phi[j]
        return f

    Mh = _one_face(SKEWED)[0]
    for i, j in [(0, 0), (0, 3), (3, 4), (5, 5), (1, 2)]:
        assert np.isclose(Mh[i, j], duffy_integrate(entry(i, j), SKEWED), rtol=1e-10)


def _random_ccw_triangles(rng, n):
    """n counter-clockwise triangles of random size, place and shape, none sliver-thin."""
    X = rng.uniform(-1.0, 1.0, (4 * n, 3, 2))
    d1, d2 = X[:, 1] - X[:, 0], X[:, 2] - X[:, 0]
    det = d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]
    X[det < 0] = X[det < 0][:, ::-1]
    longest = np.linalg.norm(X - np.roll(X, 1, axis=1), axis=2).max(axis=1)
    X = X[np.abs(det) > 0.05 * longest ** 2][:n]
    scale = 10.0 ** rng.uniform(-3.0, 3.0, (len(X), 1, 1))
    return scale * X + rng.uniform(-100.0, 100.0, (len(X), 1, 2))


def _assert_blocks_close(got, ref, rtol):
    err = np.abs(got - ref).max(axis=(1, 2))
    assert np.all(err <= rtol * np.abs(ref).max(axis=(1, 2))), err.max()


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), degree=st.sampled_from([1, 2, 4, 5]))
def test_tensor_kernels_match_quadrature_sums(seed, degree):
    rng = np.random.default_rng(seed)
    X = _random_ccw_triangles(rng, 16)
    quad = fem.quadrature_rule(degree)
    Jinv, area = fem._geometry(X)
    direction = rng.standard_normal(2) * 10.0 ** rng.uniform(-2.0, 2.0)
    f0, beta = rng.standard_normal(2)

    _assert_blocks_close(fem._p2_mass_blocks(area, quad), oracles.p2_mass_blocks(X, quad), 1e-13)
    _assert_blocks_close(fem._p2_stiffness_blocks(Jinv, area, quad),
                         oracles.p2_stiffness_blocks(X, quad), 1e-13)
    _assert_blocks_close(fem._p2_ddx_blocks(Jinv, area, quad, direction),
                         oracles.p2_ddx_blocks(X, quad, direction), 1e-13)
    _assert_blocks_close(fem._gradient_blocks(Jinv), oracles.gradient_blocks(X), 1e-13)
    _assert_blocks_close(fem._coriolis_blocks(X, area, f0, beta, quad),
                         oracles.coriolis_blocks(X, lambda x: f0 + beta * x[..., 1], quad), 1e-13)
    _assert_blocks_close(fem._coriolis_blocks(X, area, f0, 0.0, quad),
                         oracles.coriolis_blocks(X, f0, quad), 1e-13)


@pytest.mark.parametrize(
    "mesh",
    [build_right_triangle_torus(5, 3, 1.3, 0.7), build_equilateral_torus(4, 3, 0.37)],
    ids=["right", "equilateral"],
)
def test_assembled_operators_match_quadrature_oracle(mesh):
    ops = fem.operators(mesh)
    X = mesh.corner_coords()
    q4, q5 = fem.quadrature_rule(4), fem.quadrature_rule(5)
    pd, vd = ops.p2.cell_dofs(), ops.v.cell_dofs()
    n, nv = ops.p2.n_dofs, ops.v.n_dofs
    direction = (0.6, -0.8)
    profile = lambda x: 0.5 + 0.2 * x[..., 1]
    Mv = oracles.assemble_dense(oracles.p1dg_mass_blocks(X, q4), vd, vd, (nv, nv))
    E = oracles.assemble_dense(oracles.gradient_blocks(X), vd, pd, (nv, n))
    pairs = [
        (ops.M, oracles.assemble_dense(oracles.p2_mass_blocks(X, q4), pd, pd, (n, n))),
        (ops.L, oracles.assemble_dense(oracles.p2_stiffness_blocks(X, q4), pd, pd, (n, n))),
        (ops.Mv, Mv),
        (ops.E, E),
        (fem.assemble_ddx_p2(ops.p2, direction),
         oracles.assemble_dense(oracles.p2_ddx_blocks(X, q4, direction), pd, pd, (n, n))),
        (fem.assemble_coriolis(ops.v, 1.7),
         oracles.assemble_dense(oracles.coriolis_blocks(X, 1.7, q5), vd, vd, (nv, nv))),
        (fem.assemble_coriolis(ops.v, 0.5, 0.2),
         oracles.assemble_dense(oracles.coriolis_blocks(X, profile, q5), vd, vd, (nv, nv))),
    ]
    for got, ref in pairs:
        assert got.shape == ref.shape
        assert np.abs(got.toarray() - ref).max() <= 1e-14 * np.abs(ref).max()


def test_reference_tensors_are_built_once_per_rule():
    quad = fem.quadrature_rule(4)
    _one_face(SKEWED, quad)
    misses = fem._ref_tensors.cache_info().misses
    for _ in range(3):
        _one_face(SKEWED, quad)
        _one_face(SKEWED)
    assert fem._ref_tensors.cache_info().misses == misses


def test_p1dg_vector_mass_block():
    m = build_right_triangle_torus(2, 2, 1.0, 1.0)
    ops = fem.operators(m)
    corners = m.corner_coords()
    Mv = ops.Mv.toarray()
    for f in range(m.n_f):
        sl = slice(6 * f, 6 * f + 6)
        assert np.allclose(Mv[sl, sl], p1_vector_mass_exact(corners[f]), atol=1e-14)
    off = Mv.copy()
    for f in range(m.n_f):
        off[6 * f:6 * f + 6, 6 * f:6 * f + 6] = 0.0
    assert np.abs(off).max() == 0.0  # block diagonal by construction


@pytest.mark.parametrize(
    "mesh",
    [build_equilateral_torus(3, 3, 0.5), build_right_triangle_torus(2, 3, 1.0, 1.5)],
)
def test_global_identities(mesh):
    ops = fem.operators(mesh)
    ones = np.ones(ops.p2.n_dofs)
    assert np.isclose(ones @ (ops.M @ ones), ops.area, rtol=1e-13)
    assert np.allclose((ops.L @ ones), 0.0, atol=1e-12)

    # the embedded gradient reproduces stiffness and is skew against the perp
    E, Mv, P, L = ops.E, ops.Mv, ops.P, ops.L
    A = (E.T @ Mv @ E - L).toarray()
    assert np.abs(A).max() < 1e-12
    B = (E.T @ Mv @ P @ E).toarray()
    assert np.abs(B).max() < 1e-13

    Pd = P.toarray()
    assert np.allclose(Pd @ Pd, -np.eye(ops.v.n_dofs), atol=1e-15)
    assert np.allclose(Pd.T, -Pd, atol=1e-15)


def test_gradient_embedding_matches_finite_differences():
    mesh = build_right_triangle_torus(3, 3, 1.0, 1.0)
    ops = fem.operators(mesh)
    h = random_field(ops.p2, seed=9).coeffs
    g = (ops.E @ h).reshape(mesh.n_f, 3, 2)
    cc = mesh.corner_coords()
    step = 1e-6
    for f in [0, 7, 13]:
        hl = h[ops.p2.cell_dofs()[f]]

        def q(pt):
            return sum(hl[d] * p2_value_exact(cc[f], d, pt) for d in range(6))

        for i in range(3):
            x0 = cc[f][i]
            fd = np.array([
                (q(x0 + [step, 0]) - q(x0 - [step, 0])) / (2 * step),
                (q(x0 + [0, step]) - q(x0 - [0, step])) / (2 * step),
            ])
            assert np.allclose(g[f, i], fd, atol=5e-7)


def test_coriolis_constant_and_affine():
    mesh = build_equilateral_torus(2, 3, 1.0)
    ops = fem.operators(mesh)
    f0 = 1.7
    C = fem.assemble_coriolis(ops.v, f0)
    assert np.abs((C - f0 * (ops.Mv @ ops.P)).toarray()).max() < 1e-14

    beta = 0.3
    Cb = fem.assemble_coriolis(ops.v, f0, beta)
    rng = np.random.default_rng(0)
    u = rng.standard_normal(ops.v.n_dofs)
    w = rng.standard_normal(ops.v.n_dofs)
    # oracle: elementwise duffy integration of w . f (u-perp)
    total = 0.0
    cc = mesh.corner_coords()
    for f in range(mesh.n_f):
        dofs = ops.v.cell_dofs()[f]
        ux, uy = u[dofs[0::2]], u[dofs[1::2]]
        wx, wy = w[dofs[0::2]], w[dofs[1::2]]
        corners = cc[f]
        T = np.vstack([corners.T, np.ones(3)])

        def integrand(x, y):
            lam = np.linalg.solve(T, np.array([x, y, 1.0]))
            ux_v, uy_v = lam @ ux, lam @ uy
            wx_v, wy_v = lam @ wx, lam @ wy
            fval = f0 + beta * y
            return fval * (wx_v * (-uy_v) + wy_v * ux_v)

        total += duffy_integrate(integrand, corners)
    assert np.isclose(w @ (Cb @ u), total, rtol=1e-10)


def test_collocate_hits_dof_points():
    mesh = build_right_triangle_torus(2, 2, 1.0, 1.0)
    ops = fem.operators(mesh)
    fn = lambda x: np.cos(2 * np.pi * x[..., 0]) + np.sin(2 * np.pi * x[..., 1])
    h = fem.collocate(ops.p2, fn)
    assert np.allclose(h.coeffs, fn(ops.p2.dof_points()), atol=1e-14)


def test_collocate_rejects_wrong_shaped_callbacks():
    mesh = build_right_triangle_torus(2, 2, 1.0, 1.0)
    ops = fem.operators(mesh)
    # callbacks get the (n, 2) array of all points once and must return one
    # value (or one vector) per point; a point-wise callback is not retried
    for space, fn in [
        (ops.p2, lambda p: p[0] + 2.0 * p[1]),
        (ops.p2, lambda x: 1.0),
        (ops.v, lambda p: (p[0], p[0] * p[1])),
        (ops.v, lambda x: x[..., 0]),
    ]:
        with pytest.raises(ValueError, match="callback returned shape"):
            fem.collocate(space, fn)
    u = fem.collocate(ops.v, lambda x: x[..., ::-1])
    assert np.array_equal(u.coeffs, mesh.corner_coords()[..., ::-1].ravel())



def test_project_p2vec_reproduces_elementwise_linear_fields():
    mesh = build_equilateral_torus(3, 2, 0.8)
    ops = fem.operators(mesh)
    # midpoint values set to the endpoint average make every element linear,
    # and that construction is consistent across the periodic identifications
    rng = np.random.default_rng(4)
    vx = rng.standard_normal(mesh.n_v)
    vy = rng.standard_normal(mesh.n_v)
    hx = np.concatenate([vx, 0.5 * vx[mesh.edges].sum(axis=1)])
    hy = np.concatenate([vy, 0.5 * vy[mesh.edges].sum(axis=1)])
    u = fem.project_p2vec_to_p1dg(fem.Field(ops.p2, hx), fem.Field(ops.p2, hy), ops.v)
    uu = u.coeffs.reshape(mesh.n_f, 3, 2)
    # projection of a field already in the target space is the identity
    assert np.allclose(uu[..., 0], vx[mesh.triangles], atol=1e-12)
    assert np.allclose(uu[..., 1], vy[mesh.triangles], atol=1e-12)


def test_project_p2vec_normal_equations_single_element():
    mesh = build_right_triangle_torus(2, 2, 1.0, 1.0)
    ops = fem.operators(mesh)
    rng = np.random.default_rng(5)
    hx = fem.Field(ops.p2, rng.standard_normal(ops.p2.n_dofs))
    hy = fem.Field(ops.p2, rng.standard_normal(ops.p2.n_dofs))
    u = fem.project_p2vec_to_p1dg(hx, hy, ops.v).coeffs
    # oracle: per element solve the least-squares normal equations by duffy
    cc = mesh.corner_coords()
    for f in [0, 3]:
        corners = cc[f]
        T = np.vstack([corners.T, np.ones(3)])
        A = np.zeros((3, 3))
        bx = np.zeros(3)
        by = np.zeros(3)
        hxl = hx.coeffs[ops.p2.cell_dofs()[f]]
        hyl = hy.coeffs[ops.p2.cell_dofs()[f]]
        for i in range(3):
            for j in range(3):
                A[i, j] = duffy_integrate(
                    lambda x, y, i=i, j=j: np.linalg.solve(T, [x, y, 1.0])[i]
                    * np.linalg.solve(T, [x, y, 1.0])[j], corners)

            def rhs(x, y, i=i, comp=0):
                lam = np.linalg.solve(T, [x, y, 1.0])
                phi, _ = ref_p2_basis(lam)
                return lam[i] * (phi @ (hxl if comp == 0 else hyl))

            bx[i] = duffy_integrate(lambda x, y, i=i: rhs(x, y, i, 0), corners)
            by[i] = duffy_integrate(lambda x, y, i=i: rhs(x, y, i, 1), corners)
        ex = np.linalg.solve(A, bx)
        ey = np.linalg.solve(A, by)
        got = u[ops.v.cell_dofs()[f]].reshape(3, 2)
        assert np.allclose(got[:, 0], ex, atol=1e-10)
        assert np.allclose(got[:, 1], ey, atol=1e-10)


def test_perp_rotates_nodewise():
    mesh = build_right_triangle_torus(2, 2, 1.0, 1.0)
    ops = fem.operators(mesh)
    rng = np.random.default_rng(1)
    u = rng.standard_normal(ops.v.n_dofs)
    uu, vv = u.reshape(-1, 2), (ops.P @ u).reshape(-1, 2)
    assert np.array_equal(vv[:, 0], -uu[:, 1])
    assert np.array_equal(vv[:, 1], uu[:, 0])


def test_operators_are_cached():
    mesh = build_equilateral_torus(2, 2, 1.0)
    assert fem.operators(mesh) is fem.operators(mesh)


def test_means_and_constant_field():
    mesh = build_equilateral_torus(3, 3, 0.4)
    ops = fem.operators(mesh)
    c = ops.constant_field((2.5, -0.5))
    assert c.shape == (ops.v.n_dofs,)
    assert np.allclose(oracles.v_mean(ops, c), [2.5, -0.5], rtol=1e-13)
    h = np.full(ops.p2.n_dofs, 3.25)
    assert np.isclose(ops.p2_mean(h), 3.25, rtol=1e-13)
    # the mean is the mass-weighted average, checked against direct quadrature
    rng = np.random.default_rng(7)
    h = rng.standard_normal(ops.p2.n_dofs)
    q = fem.quadrature_rule(4)
    total = 0.0
    areas = mesh.areas()
    for f in range(mesh.n_f):
        vals = np.array([ref_p2_basis(lam)[0] for lam in q.points])
        total += 2.0 * areas[f] * q.weights @ (vals @ h[ops.p2.cell_dofs()[f]])
    assert np.isclose(ops.p2_mean(h), total / ops.area, rtol=1e-12)


def test_write_matrix_text_roundtrip():
    mesh = build_right_triangle_torus(2, 2, 1.0, 1.0)
    ops = fem.operators(mesh)
    buf = io.StringIO()
    fem.write_matrix_text(ops.L, buf)
    lines = [l for l in buf.getvalue().splitlines() if l and not l.startswith("#")]
    nr, nc, nnz = map(int, lines[0].split())
    assert (nr, nc) == ops.L.shape
    assert nnz == len(lines) - 1
    import scipy.sparse as sparse

    rows, cols, vals = [], [], []
    for l in lines[1:]:
        r, c, v = l.split()
        rows.append(int(r))
        cols.append(int(c))
        vals.append(float(v))
    back = sparse.coo_matrix((vals, (rows, cols)), shape=(nr, nc)).tocsr()
    assert np.abs((back - ops.L).toarray()).max() < 1e-15


def test_random_field_deterministic():
    mesh = build_equilateral_torus(2, 2, 1.0)
    ops = fem.operators(mesh)
    a = random_field(ops.p2, seed=42).coeffs
    b = random_field(ops.p2, seed=42).coeffs
    c = random_field(ops.p2, seed=43).coeffs
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_east_normalizes_directions_of_any_finite_size():
    # the norm neither overflows nor underflows
    assert np.array_equal(fem._east((1e300, 1e300)), fem._east((1.0, 1.0)))
    assert np.array_equal(fem._east((1e-200, 0.0)), fem._east((1.0, 0.0)))
    assert np.array_equal(fem._east((0.0, 1.0)), [1.0, 0.0])


@pytest.mark.parametrize("fhat", [(math.inf, 0.0), (math.nan, 1.0), (0.0, 0.0)])
def test_east_rejects_fhat_that_is_not_a_direction(fhat):
    with pytest.raises(ParameterError, match="fhat"):
        fem._east(fhat)


# the layout of the P2 dofs on a cell torus, which linalg.Solver's Bloch solve reads

def _written_and_read(mesh, tmp_path):
    write_mesh(mesh, tmp_path / "m.txt")
    return read_mesh(tmp_path / "m.txt")


LAYOUT_TORI = {
    "right-6x4": lambda tmp: build_right_triangle_torus(6, 4, 3.0, 1.0),
    "equilateral-4x8": lambda tmp: build_equilateral_torus(4, 8, 1e5),
    "equilateral-2x3": lambda tmp: build_equilateral_torus(2, 3, 1.0),
    "read-back": lambda tmp: _written_and_read(build_equilateral_torus(5, 3, 0.1), tmp),
    "renumbered": lambda tmp: oracles.renumbered_torus(build_right_triangle_torus(4, 6, 1.0, 2.0)),
}


@pytest.mark.parametrize("mesh", list(LAYOUT_TORI))
def test_cell_layout_orders_the_dofs_by_class_then_cell(mesh, tmp_path):
    # dof k of the layout, k = c n1 n2 + i n2 + j, lies at cell (i, j) from
    # vertex 0, offset by half a cell side along each axis where class c has
    # bit 0 or bit 1 set: vertex, first edge, second edge, diagonal
    mesh = LAYOUT_TORI[mesh](tmp_path)
    n1, n2, perm = fem.operators(mesh).cell_layout
    assert n1 * n2 == mesh.n_v and sorted(perm) == list(range(4 * n1 * n2))
    c, i, j = np.unravel_index(np.arange(4 * n1 * n2), (4, n1, n2))
    cells = np.stack([(i + 0.5 * (c % 2)) / n1, (j + 0.5 * (c // 2)) / n2], axis=1)
    points = fem.P2Space(mesh).dof_points()[perm] - mesh.vertices[0]
    offset = points @ np.linalg.inv(mesh.lattice) - cells
    assert np.abs(offset - np.rint(offset)).max() <= 1e-12


def test_cell_layout_is_none_off_the_lattice():
    assert fem.operators(oracles.jittered_torus(8, seed=1)).cell_layout is None
