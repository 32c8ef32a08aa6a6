import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swelab import bloch, fem
from swelab.dynamics import RossbyParams, SweParams
from swelab.mesh import build_equilateral_torus

from .oracles import pencil_eigvals, rank_by_svd, symbolic_reference

ZONE_R = 2.0 * math.pi / math.sqrt(3.0)


def test_reference_hexagon_geometry():
    hx = bloch.build_reference_hexagon()
    assert hx.nodes.shape == (19, 2)
    assert hx.triangles.shape == (6, 6)
    assert np.allclose(hx.nodes[0], 0.0)
    rim = hx.nodes[1:7]
    assert np.allclose(np.linalg.norm(rim, axis=1), 1.0, atol=1e-14)
    # six unit triangles around the origin, positively oriented
    total = 0.0
    for tri in hx.triangles:
        a, b, c = hx.nodes[tri[0]], hx.nodes[tri[1]], hx.nodes[tri[2]]
        area = 0.5 * ((b - a)[0] * (c - a)[1] - (b - a)[1] * (c - a)[0])
        assert area > 0
        total += area
    assert np.isclose(total, 6 * math.sqrt(3) / 4, rtol=1e-13)
    counts = np.bincount(hx.classes, minlength=4)
    assert counts.tolist() == [4, 4, 4, 7]
    assert hx.classes[0] == 3


def test_bloch_matrix_structure():
    rng = np.random.default_rng(0)
    for _ in range(5):
        kdx = rng.uniform(-2, 2, size=2)
        S = bloch.bloch_matrix_S(kdx)
        assert S.shape == (19, 4)
        nz = np.abs(S) > 0
        assert np.all(nz.sum(axis=1) == 1)
        assert np.allclose(np.abs(S[nz]), 1.0, atol=1e-14)
    S0 = bloch.bloch_matrix_S((0.0, 0.0))
    assert np.allclose(S0[np.abs(S0) > 0], 1.0)


def test_reduced_matrices_match_closed_forms():
    for kdx in bloch.random_zone_points(25, seed=3):
        num = bloch.reduced_matrices(kdx)
        ref = symbolic_reference(kdx)
        for name in ("Mr", "Lr", "D1r", "D2r"):
            a, b = getattr(num, name), getattr(ref, name)
            assert np.abs(a - b).max() < 1e-12, (name, kdx)


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
            S = bloch.bloch_matrix_S(kdx)
            M19, L19 = bloch._patch_matrices()[:2]
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

    with pytest.raises(ValueError):
        bloch.sweep_brillouin(4, "gravity", params)
    with pytest.raises(ValueError):
        bloch.sweep_brillouin(8, "acoustic", params)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10_000), st.floats(min_value=0.0, max_value=2 * math.pi))
def test_batched_spectra_match_non_hermitian_reference(seed, angle):
    gparams = SweParams(f0=1e-4, c2=1e5)
    rparams = RossbyParams(f0=1e-4, beta=1e-12, c2=1e5)
    dx = 1e5
    east = (math.sin(angle), -math.cos(angle))  # clockwise quarter-turn of fhat
    pts = bloch.random_zone_points(70, seed=seed)  # more than one block
    grav, _ = bloch._gravity(pts, gparams, dx)
    ross = bloch._rossby(pts, rparams, bloch._east((math.cos(angle), math.sin(angle))), dx)[0]
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
    mesh = build_equilateral_torus(4, 4, 0.5)
    classes = bloch.lattice_dof_classes(mesh)
    assert classes.shape == (mesh.n_v + mesh.n_e,)
    counts = np.bincount(classes, minlength=4)
    # one vertex and three edge classes per primitive cell
    assert counts.tolist() == [16, 16, 16, 16]
    # vertices are the last row of the reduced ordering, midpoints the rest
    assert set(classes[: mesh.n_v].tolist()) == {3}
    assert set(classes[mesh.n_v:].tolist()) == {0, 1, 2}


def test_lattice_gravity_mode_is_discrete_eigenpair():
    dx = 0.5
    mesh = build_equilateral_torus(6, 6, dx)
    params = SweParams(f0=1.3, c2=2.0)
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


def test_lattice_rossby_mode_is_discrete_eigenpair():
    dx = 1e5
    mesh = build_equilateral_torus(6, 6, dx)
    params = RossbyParams(f0=1e-4, beta=1e-12, c2=1e5)
    omega, psi_hat = bloch.lattice_rossby_mode(mesh, 1, 0, params)
    ops = fem.operators(mesh)
    K = (ops.L + (params.f0**2 / params.c2) * ops.M).tocsr()
    D = fem.assemble_ddx_p2(ops.p2, np.array([1.0, 0.0]))
    r = (-1j * omega) * (K @ psi_hat) - params.beta * (D @ psi_hat)
    assert np.linalg.norm(r) < 1e-9 * abs(omega) * np.linalg.norm(K @ psi_hat)


def test_lattice_mode_rejects_incompatible_mesh():
    mesh = build_equilateral_torus(4, 4, 1.0)
    params = SweParams(f0=1.0, c2=1.0)
    with pytest.raises(ValueError):
        # m = (3, 0) on a 4-cell torus leaves the first zone
        bloch.lattice_gravity_mode(mesh, 3, 0, params)
