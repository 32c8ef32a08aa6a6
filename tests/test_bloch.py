import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swelab import ParameterError, bloch, fem
from swelab.dynamics import RossbyParams, SweParams
from swelab.mesh import (
    Mesh,
    _cell_torus,
    _equilateral_cells,
    build_equilateral_torus,
    build_right_triangle_torus,
)

from .oracles import (
    HEXAGON_CLASSES,
    HEXAGON_NODES,
    HEXAGON_TRIANGLES,
    bloch_matrix_S,
    hexagon_patch,
    jittered_torus,
    pencil_eigvals,
    rank_by_svd,
    renumbered_torus,
    symbolic_reference,
)

ZONE_R = 2.0 * math.pi / math.sqrt(3.0)


def _same_translation_class(points, dx):
    """(n, n) flags: points i and j differ by an integer combination of the
    equilateral cell vectors (1, 0) and (1/2, sqrt(3)/2) times dx."""
    cell = np.array([[1.0, 0.0], [0.5, 0.5 * math.sqrt(3.0)]])
    frac = (points[:, None] - points[None, :]) @ np.linalg.inv(dx * cell)
    return np.all(np.abs(frac - np.rint(frac)) < 1e-9, axis=-1)


def test_reference_hexagon_geometry():
    nodes, tris, classes = HEXAGON_NODES, HEXAGON_TRIANGLES, HEXAGON_CLASSES
    assert nodes.shape == (19, 2)
    assert tris.shape == (6, 6)
    assert np.allclose(nodes[0], 0.0)
    rim = nodes[1:7]
    assert np.allclose(np.linalg.norm(rim, axis=1), 1.0, atol=1e-14)
    # six unit triangles around the origin, positively oriented
    total = 0.0
    for tri in tris:
        a, b, c = nodes[tri[0]], nodes[tri[1]], nodes[tri[2]]
        area = 0.5 * ((b - a)[0] * (c - a)[1] - (b - a)[1] * (c - a)[0])
        assert area > 0
        total += area
    assert np.isclose(total, 6 * math.sqrt(3) / 4, rtol=1e-13)
    counts = np.bincount(classes, minlength=4)
    assert counts.tolist() == [4, 4, 4, 7]
    assert classes[0] == 3
    # the hard-coded classes are the translation classes of the lattice
    assert np.array_equal(_same_translation_class(nodes, 1.0), classes[:, None] == classes)


def test_bloch_matrix_structure():
    rng = np.random.default_rng(0)
    for _ in range(5):
        kdx = rng.uniform(-2, 2, size=2)
        S = bloch_matrix_S(kdx)
        assert S.shape == (19, 4)
        nz = np.abs(S) > 0
        assert np.all(nz.sum(axis=1) == 1)
        assert np.allclose(np.abs(S[nz]), 1.0, atol=1e-14)
    S0 = bloch_matrix_S((0.0, 0.0))
    assert np.allclose(S0[np.abs(S0) > 0], 1.0)


def test_reduced_matrices_match_closed_forms():
    for kdx in bloch.random_zone_points(25, seed=3):
        num = bloch.reduced_matrices(kdx)
        ref = symbolic_reference(kdx)
        for name in ("Mr", "Lr", "D1r", "D2r"):
            a, b = getattr(num, name), getattr(ref, name)
            assert np.abs(a - b).max() < 1e-12, (name, kdx)


@pytest.mark.parametrize("quad_degree", [2, 4, 5])
def test_displacement_table_matches_definitional_reduction(quad_degree):
    # S^H X S from the phase matrix and the patch assembled face by face from
    # quadrature sums, one point at a time, against the table at kdx = 0 and
    # 60 zone points, given as one (N, 2) stack, as a (3, 20, 2) stack and
    # point by point as (2,) vectors
    X = hexagon_patch(quad_degree)
    pts = np.vstack([np.zeros((1, 2)), bloch.random_zone_points(60, seed=11)])
    want = np.array([[bloch_matrix_S(k).conj().T @ Xb @ bloch_matrix_S(k) for k in pts]
                     for Xb in X])
    stacked = np.array(bloch._reductions(pts, quad_degree))
    shaped = np.array(bloch._reductions(pts[1:].reshape(3, 20, 2), quad_degree))
    single = np.array([bloch._reductions(k, quad_degree) for k in pts]).swapaxes(0, 1)
    assert stacked.shape == single.shape == want.shape == (4, 61, 4, 4)
    assert shaped.shape == (4, 3, 20, 4, 4)
    scale = np.abs(want).max(axis=(1, 2, 3))
    for got, ref in ((stacked, want), (single, want), (shaped.reshape(4, 60, 4, 4), want[:, 1:])):
        err = np.abs(got - ref).max(axis=(1, 2, 3))
        assert np.all(err <= 1e-13 * scale), (err / scale)


def test_reduced_matrices_structure():
    for kdx in [(0.3, -0.8), (1.5, 0.2), (0.0, 0.0)]:
        red = bloch.reduced_matrices(kdx)
        assert np.abs(red.Mr - red.Mr.conj().T).max() < 1e-14
        assert np.abs(red.Lr - red.Lr.conj().T).max() < 1e-14
        assert np.abs(red.D1r + red.D1r.conj().T).max() < 1e-14
        assert np.abs(red.D2r + red.D2r.conj().T).max() < 1e-14
        wM = np.linalg.eigvalsh(red.Mr)
        wL = np.linalg.eigvalsh(red.Lr)
        assert wM.min() > 0
        assert wL.min() > -1e-13


def test_zero_wavevector_degeneracies():
    red = bloch.reduced_matrices((0.0, 0.0))
    assert np.abs(red.D1r).max() < 1e-14
    assert np.abs(red.D2r).max() < 1e-14
    # the constant pressure mode is the only null direction of the stiffness
    w = np.linalg.eigvalsh(red.Lr)
    assert w[0] < 1e-13
    assert w[1] > 0.1
    assert rank_by_svd(red.Lr.T) == 3


def test_patch_permutation_is_the_unique_match():
    # regression guard on the class numbering: among all permutations of the
    # four pressure classes only the identity reproduces the closed forms
    pts = bloch.random_zone_points(6, seed=7)
    errs = {}
    for perm in itertools.permutations(range(4)):
        worst = 0.0
        for kdx in pts:
            S = bloch_matrix_S(kdx)
            M19, L19 = hexagon_patch()[:2]
            Mr = (S.conj().T @ M19 @ S)[np.ix_(perm, perm)]
            Lr = (S.conj().T @ L19 @ S)[np.ix_(perm, perm)]
            ref = symbolic_reference(kdx)
            worst = max(worst, np.abs(Mr - ref.Mr).max(), np.abs(Lr - ref.Lr).max())
        errs[perm] = worst
    best = min(errs, key=errs.get)
    assert best == (0, 1, 2, 3)
    assert errs[best] < 1e-12
    second = sorted(errs.values())[1]
    assert second > 1e-3


def test_oracle_report_and_quadrature_sensitivity():
    report = bloch.oracle_report(n_samples=20, seed=1)
    assert set(report) == {"Mr", "Lr", "D1r", "D2r"}
    for err, kdx in report.values():
        assert err < 1e-12
        assert len(kdx) == 2
    # dropping the quadrature below the product degree must show up in the
    # mass and derivative blocks while the stiffness stays exact
    weak = bloch.oracle_report(n_samples=20, seed=1, quad_degree=2)
    assert weak["Mr"][0] > 1e-6
    assert weak["Lr"][0] < 1e-12


@pytest.mark.parametrize("n_samples", [0, -3])
def test_oracle_report_rejects_no_samples(n_samples):
    # an empty report would leave its caller no worst block to name
    with pytest.raises(ParameterError, match="n_samples must be at least 1"):
        bloch.oracle_report(n_samples)


def test_in_brillouin_zone():
    assert bloch.in_brillouin_zone((0.0, 0.0))
    assert bloch.in_brillouin_zone((4 * math.pi / 3 - 1e-9, 0.0))
    assert not bloch.in_brillouin_zone((0.0, ZONE_R + 0.01))
    assert not bloch.in_brillouin_zone((4 * math.pi / 3 + 0.01, 0.0))
    assert bloch.in_brillouin_zone((0.5, 0.5))


def test_random_zone_points():
    pts = bloch.random_zone_points(50, seed=5)
    assert pts.shape == (50, 2)
    assert np.array_equal(pts, bloch.random_zone_points(50, seed=5))
    for p in pts:
        assert bloch.in_brillouin_zone(p)


def test_gravity_branches_basics():
    params = SweParams(f0=1.2, c2=3.0)
    res = bloch.gravity_branches((0.4, -0.3), params)
    assert res.omegas.shape == (4,)
    assert np.all(np.diff(res.omegas) >= -1e-12)
    assert res.omegas[0] >= params.f0 - 1e-12
    assert res.vectors.shape == (4, 4)

    at0 = bloch.gravity_branches((0.0, 0.0), params)
    assert np.isclose(at0.omegas[0], params.f0, rtol=1e-12)

    with pytest.raises(ValueError):
        bloch.gravity_branches((0.0, ZONE_R + 0.1), params)


def test_gravity_lowest_branch_tracks_exact_relation():
    # the resolved branch approaches sqrt(f0^2 + c2 |k|^2) as kdx -> 0
    params = SweParams(f0=1.0, c2=1.0)
    dx = 1.0
    for kdx in [(0.05, 0.0), (0.0, 0.05), (0.03, 0.04)]:
        res = bloch.gravity_branches(kdx, params, dx=dx)
        kk = np.linalg.norm(kdx) / dx
        exact = math.sqrt(params.f0**2 + params.c2 * kk * kk)
        assert abs(res.omegas[0] - exact) < 1e-4 * exact


def test_gravity_scaling_with_dx():
    params = SweParams(f0=0.0001, c2=1e5)
    a = bloch.gravity_branches((0.5, 0.2), params, dx=1.0)
    b = bloch.gravity_branches((0.5, 0.2), params, dx=2.0)
    # with f0 ~ 0 the spectrum scales like 1/dx
    assert np.allclose(b.omegas, a.omegas / 2.0, rtol=1e-6)


def test_rossby_branches_basics():
    params = RossbyParams(f0=1e-4, beta=1e-12, c2=1e5)
    res = bloch.rossby_branches((0.5, 0.0), params, dx=1e5)
    assert res.labels is not None and len(res.labels) == 4
    assert set(res.labels) <= set(bloch.TEMPLATE_NAMES)
    assert list(res.labels).count("fundamental") == 1
    assert np.all(np.diff(res.omegas) >= -1e-30)
    fund = res.omegas[list(res.labels).index("fundamental")]
    k = 0.5 / 1e5
    exact = -params.beta * k / (k * k + params.f0**2 / params.c2)
    assert abs(fund - exact) < 0.1 * abs(exact)

    at0 = bloch.rossby_branches((0.0, 0.0), params, dx=1e5)
    assert np.allclose(at0.omegas, 0.0)


def test_rossby_fundamental_accuracy_order():
    # the paper's third-order Rossby claim: relative error of the fundamental
    # branch against -beta k_x / (|k|^2 + f0^2/c2) at dx = 1 along a generic
    # direction.  Measured order 4.15 (errors 1.9e-5 down to 3.4e-9); at
    # f0^2/c2 = 1 the error reaches rounding level by |kdx| = 0.1
    params = RossbyParams(f0=1.0, beta=1.0, c2=1e3)
    khat = np.array([math.cos(0.35), math.sin(0.35)])
    scales = np.array([0.4, 0.2, 0.1, 0.05])
    errs = []
    for kdx_mag in scales:
        k = kdx_mag * khat
        res = bloch.rossby_branches(k, params)
        fund = res.omegas[list(res.labels).index("fundamental")]
        exact = -params.beta * k[0] / (k @ k + params.f0**2 / params.c2)
        errs.append(abs(fund - exact) / abs(exact))
    assert np.polyfit(np.log(scales), np.log(errs), 1)[0] >= 3.0


def test_rossby_spectrum_odd_under_reflection():
    params = RossbyParams(f0=1e-4, beta=1e-12, c2=1e5)
    a = bloch.rossby_branches((0.4, 0.1), params, dx=1e5)
    b = bloch.rossby_branches((-0.4, -0.1), params, dx=1e5)
    assert np.allclose(np.sort(a.omegas), np.sort(-b.omegas), rtol=1e-10)


def test_rossby_covariant_under_lattice_rotation():
    # rotating both the wave vector and the planetary gradient by the
    # hexagonal symmetry angle must leave the spectrum unchanged
    params = RossbyParams(f0=1e-4, beta=1e-12, c2=1e5)
    c, s = math.cos(math.pi / 3), math.sin(math.pi / 3)
    R = np.array([[c, -s], [s, c]])
    kdx = np.array([0.35, -0.2])
    fhat = np.array([0.0, 1.0])
    a = bloch.rossby_branches(kdx, params, fhat=fhat, dx=1e5)
    b = bloch.rossby_branches(R @ kdx, params, fhat=R @ fhat, dx=1e5)
    assert np.allclose(a.omegas, b.omegas, rtol=1e-8, atol=1e-25)


def test_gravity_covariant_under_lattice_rotation():
    params = SweParams(f0=1.0, c2=2.0)
    c, s = math.cos(math.pi / 3), math.sin(math.pi / 3)
    R = np.array([[c, -s], [s, c]])
    kdx = np.array([0.7, 0.45])
    a = bloch.gravity_branches(kdx, params)
    b = bloch.gravity_branches(R @ kdx, params)
    assert np.allclose(a.omegas, b.omegas, rtol=1e-10)


def test_sweep_brillouin():
    params = SweParams(f0=1.0, c2=1.0)
    rows = bloch.sweep_brillouin(8, "gravity", params)
    assert len(rows) > 30
    for res in rows:
        assert bloch.in_brillouin_zone(res.kdx, tol=1e-9)
        assert res.omegas.shape == (4,)

    rparams = RossbyParams(f0=1e-4, beta=1e-12, c2=1e5)
    rrows = bloch.sweep_brillouin(8, "rossby", rparams, dx=1e5)
    assert all(r.labels is not None for r in rrows)
    # fhat given as an array, as rossby_branches takes it, gives the same rows
    arows = bloch.sweep_brillouin(8, "rossby", rparams, fhat=np.array([0.0, 1.0]), dx=1e5)
    assert all(np.array_equal(a.omegas, r.omegas) and a.labels == r.labels
               for a, r in zip(arows, rrows))

    with pytest.raises(ValueError):
        bloch.sweep_brillouin(4, "gravity", params)
    with pytest.raises(ValueError):
        bloch.sweep_brillouin(8, "acoustic", params)


@pytest.mark.parametrize("dx", [0.0, -1e5, math.nan])
def test_dispersion_rejects_dx_that_is_not_positive(dx):
    # a negative dx would flip the sign of every Rossby frequency, and 0
    # would divide by zero
    gparams = SweParams(f0=1e-4, c2=1e5)
    rparams = RossbyParams(f0=1e-4, beta=1e-12, c2=1e5)
    calls = [lambda: bloch.gravity_branches((0.5, 0.0), gparams, dx=dx),
             lambda: bloch.rossby_branches((0.5, 0.0), rparams, dx=dx),
             lambda: bloch.sweep_brillouin(8, "gravity", gparams, dx=dx),
             lambda: bloch.sweep_brillouin(8, "rossby", rparams, dx=dx)]
    for call in calls:
        with pytest.raises(ParameterError, match="dx must be positive and finite"):
            call()


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10_000), st.floats(min_value=0.0, max_value=2 * math.pi))
def test_batched_spectra_match_non_hermitian_reference(seed, angle):
    gparams = SweParams(f0=1e-4, c2=1e5)
    rparams = RossbyParams(f0=1e-4, beta=1e-12, c2=1e5)
    dx = 1e5
    east = (math.sin(angle), -math.cos(angle))  # clockwise quarter-turn of fhat
    pts = bloch.random_zone_points(70, seed=seed)  # more than one block
    grav, _ = bloch._gravity(pts, gparams, dx)
    ross = bloch._rossby(pts, rparams, fem._east((math.cos(angle), math.sin(angle))), dx)[0]
    for kdx, g, r in zip(pts, grav, ross):
        red = bloch.reduced_matrices(kdx)
        lam = pencil_eigvals(red.Lr, red.Mr)
        assert np.abs(lam.imag).max() <= 1e-10 * np.abs(lam).max()
        want = np.sqrt(gparams.f0**2 + gparams.c2 / dx**2 * np.clip(np.sort(lam.real), 0.0, None))
        assert np.abs(g - want).max() <= 1e-10 * want.max()

        K = red.Lr / dx**2 + rparams.lr2_inv * red.Mr
        T = (rparams.beta / dx) * (east[0] * red.D1r + east[1] * red.D2r)
        mu = pencil_eigvals(T, K)  # mu = -i omega
        scale = np.abs(mu).max()
        assert np.abs(mu.real).max() <= 1e-10 * scale
        assert np.abs(r - np.sort(-mu.imag)).max() <= 1e-10 * scale


@pytest.mark.parametrize("kind", ["gravity", "rossby"])
def test_sweep_rows_equal_per_point_results(kind):
    if kind == "gravity":
        params = SweParams(f0=1.0, c2=1.0)
        rows = bloch.sweep_brillouin(16, "gravity", params)
        per_point = [bloch.gravity_branches(r.kdx, params) for r in rows]
    else:
        params = RossbyParams(f0=1e-4, beta=1e-12, c2=1e5)
        rows = bloch.sweep_brillouin(16, "rossby", params, fhat=(0.3, -1.0), dx=1e5)
        per_point = [bloch.rossby_branches(r.kdx, params, (0.3, -1.0), dx=1e5) for r in rows]
    assert len(rows) > 2 * bloch._BLOCK
    for r, p in zip(rows, per_point):
        # equal up to the rounding of batched against single matrix products
        assert r.kdx == p.kdx
        assert np.abs(r.omegas - p.omegas).max() <= 1e-12 * np.abs(p.omegas).max()
        assert np.abs(r.vectors - p.vectors).max() <= 1e-10
        assert r.labels == p.labels and r.ambiguous == p.ambiguous


def test_degenerate_rossby_pairs_are_flagged():
    # on the k = 0 axis of an odd grid the Rossby pencil has a two-fold
    # omega = 0, whose eigenvectors are any basis of a plane
    params = RossbyParams(f0=1e-4, beta=1e-12, c2=1e5)
    axis = [r for r in bloch.sweep_brillouin(33, "rossby", params, dx=1e5)
            if r.kdx[0] == 0.0 and r.kdx[1] != 0.0]
    assert len(axis) >= 16
    for r in axis:
        w = np.asarray(r.omegas)
        pairs = np.flatnonzero(np.diff(w) <= 1e-8 * np.abs(w).max())
        assert pairs.size > 0
        for j in pairs:
            assert r.ambiguous[j] and r.ambiguous[j + 1]
    # gaps on the even grid are at least 9e-4 of the largest |omega|: no flags
    rows = bloch.sweep_brillouin(32, "rossby", params, dx=1e5)
    assert not any(any(r.ambiguous) for r in rows)


def test_lattice_dof_classes():
    # the one-cell torus: its vertex, then its oblique, anti-oblique and
    # x-edge midpoints
    assert bloch.lattice_dof_classes(_equilateral_cells(1, 1, 1.0)).tolist() == [3, 1, 2, 0]
    for n1, n2, dx in [(2, 2, 1.0), (4, 4, 0.5), (5, 7, 0.3)]:
        mesh = build_equilateral_torus(n1, n2, dx)
        classes = bloch.lattice_dof_classes(mesh)
        assert classes.shape == (mesh.n_v + mesh.n_e,)
        counts = np.bincount(classes, minlength=4)
        # one vertex and three edge classes per primitive cell
        assert counts.tolist() == [n1 * n2] * 4
        # vertices are the last row of the reduced ordering, midpoints the rest
        assert set(classes[: mesh.n_v].tolist()) == {3}
        assert set(classes[mesh.n_v:].tolist()) == {0, 1, 2}
        # two dofs share a class exactly when their points differ by a
        # lattice vector, whatever order the faces and dofs come in
        same = _same_translation_class(fem.P2Space(mesh).dof_points(), dx)
        assert np.array_equal(same, classes[:, None] == classes)


def _face_permuted(mesh, seed=5):
    """The same torus with its vertices renumbered, its faces in a random order
    and each face's corners rotated: a mesh file may hold any of these."""
    rng = np.random.default_rng(seed)
    mesh = renumbered_torus(mesh, seed)
    faces = rng.permutation(mesh.n_f)
    turn = (np.arange(3) + rng.integers(0, 3, (mesh.n_f, 1))) % 3
    triangles = np.take_along_axis(mesh.triangles[faces], turn, axis=1)
    shifts = np.take_along_axis(mesh.shifts[faces], turn[..., None], axis=1)
    return Mesh(mesh.vertices, triangles, shifts, mesh.lattice)


def _by_point(mesh, values):
    """values of the P2 dofs in the order of their points on the half-cell
    grid of an n x n torus, read modulo the lattice."""
    n = math.isqrt(mesh.n_v)
    frac = fem.P2Space(mesh).dof_points() @ np.linalg.inv(mesh.lattice)
    grid = np.rint(2 * n * frac).astype(int) % (2 * n)
    return values[np.lexsort(grid.T)]


def _long_diagonal_torus(n, dx):
    """The equilateral torus with each rhombus split along its long diagonal."""
    axes = [[1.0, 0.0], [0.5, 0.5 * math.sqrt(3.0)]]
    return _cell_torus(n, n, (dx, dx), (n * dx, n * dx), axes, [[0, 1, 3], [0, 3, 2]])


def _rotated(mesh, angle):
    c, s = math.cos(angle), math.sin(angle)
    R = np.array([[c, -s], [s, c]])
    return Mesh(mesh.vertices @ R.T, mesh.triangles, mesh.shifts, mesh.lattice @ R.T)


@pytest.mark.parametrize("mesh", [
    build_right_triangle_torus(6, 6, 6.0, 6.0),
    jittered_torus(8),
    _rotated(build_equilateral_torus(6, 6, 1.0), math.pi / 6.0),
    _long_diagonal_torus(6, 1.0),
], ids=["right", "jittered", "rotated", "long-diagonal"])
def test_lattice_modes_reject_non_equilateral_mesh(mesh):
    # all but the jittered torus are cell tori, which the geometry check
    # refuses: the right and rotated ones by their lattice rows, the
    # long-diagonal one by its face sides
    with pytest.raises(ParameterError, match="equilateral cell"):
        bloch.lattice_dof_classes(mesh)
    with pytest.raises(ParameterError, match="equilateral cell"):
        bloch.lattice_gravity_mode(mesh, 1, 0, SweParams(f0=1.0, c2=1.0))
    with pytest.raises(ParameterError, match="equilateral cell"):
        bloch.lattice_rossby_mode(mesh, 1, 0, RossbyParams(f0=1e-4, beta=1e-12, c2=1e5))


def test_lattice_modes_and_operators_read_one_cell_layout():
    # the lattice classes and the operators' solvers read the same layout,
    # computed once per mesh
    mesh = build_equilateral_torus(4, 6, 1.0)
    bloch.lattice_rossby_mode(mesh, 1, 0, RossbyParams(f0=1.0, beta=1.0, c2=1.0))
    layout = fem.operators(mesh).cell_layout
    assert layout is not None and layout is fem._cell_layout(fem.P2Space(mesh))


def _check_gravity_mode(mesh, params, dx):
    omega, u_hat, eta_hat = bloch.lattice_gravity_mode(mesh, 1, 1, params)
    ops = fem.operators(mesh)
    # residuals of the coupled time-harmonic system at frequency omega:
    #   -i w Mv u + f0 Mv P u + c2 G eta = 0,  -i w M eta - G^T u = 0,  G = Mv E
    G = ops.Mv @ ops.E
    r1 = (-1j * omega) * (ops.Mv @ u_hat) + params.f0 * (ops.Mv @ (ops.P @ u_hat)) \
        + params.c2 * (G @ eta_hat)
    r2 = (-1j * omega) * (ops.M @ eta_hat) - G.T @ u_hat
    s1 = np.linalg.norm(ops.Mv @ u_hat) * abs(omega)
    s2 = np.linalg.norm(ops.M @ eta_hat) * abs(omega)
    assert np.linalg.norm(r1) < 1e-9 * s1
    assert np.linalg.norm(r2) < 1e-9 * s2
    # frequency agrees with the reduced model at the same wave number
    k = bloch.reciprocal_wavevector(mesh, 1, 1)
    red = bloch.gravity_branches(k * dx, params, dx=dx)
    assert abs(omega - red.omegas[0]) < 1e-10 * omega
    return omega


def _check_rossby_mode(mesh, params):
    omega, psi_hat = bloch.lattice_rossby_mode(mesh, 1, 0, params)
    ops = fem.operators(mesh)
    K = (ops.L + (params.f0**2 / params.c2) * ops.M).tocsr()
    D = fem.assemble_ddx_p2(ops.p2, np.array([1.0, 0.0]))
    r = (-1j * omega) * (K @ psi_hat) - params.beta * (D @ psi_hat)
    assert np.linalg.norm(r) < 1e-9 * abs(omega) * np.linalg.norm(K @ psi_hat)
    return omega


def test_lattice_gravity_mode_is_discrete_eigenpair():
    _check_gravity_mode(build_equilateral_torus(6, 6, 0.5), SweParams(f0=1.3, c2=2.0), 0.5)


def test_lattice_rossby_mode_is_discrete_eigenpair():
    _check_rossby_mode(build_equilateral_torus(6, 6, 1e5), RossbyParams(f0=1e-4, beta=1e-12, c2=1e5))


def test_face_permuted_torus_gets_lattice_modes():
    # the classes come from the dof points, not from the face order
    built = build_equilateral_torus(6, 6, 0.5)
    permuted = _face_permuted(built)
    assert not np.array_equal(fem.P2Space(permuted).dof_points(), fem.P2Space(built).dof_points())
    assert np.array_equal(_by_point(permuted, bloch.lattice_dof_classes(permuted)),
                          _by_point(built, bloch.lattice_dof_classes(built)))
    params = SweParams(f0=1.3, c2=2.0)
    assert _check_gravity_mode(permuted, params, 0.5) == _check_gravity_mode(built, params, 0.5)
    rparams = RossbyParams(f0=1e-4, beta=1e-12, c2=1e5)
    scaled, scaled_permuted = (Mesh(m.vertices * 2e5, m.triangles, m.shifts, m.lattice * 2e5)
                               for m in (built, permuted))
    assert _check_rossby_mode(scaled_permuted, rparams) == _check_rossby_mode(scaled, rparams)


def test_lattice_mode_rejects_incompatible_mesh():
    mesh = build_equilateral_torus(4, 4, 1.0)
    params = SweParams(f0=1.0, c2=1.0)
    with pytest.raises(ValueError):
        # m = (3, 0) on a 4-cell torus leaves the first zone
        bloch.lattice_gravity_mode(mesh, 3, 0, params)
