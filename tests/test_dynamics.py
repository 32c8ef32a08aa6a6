import gc
import math
import weakref

import numpy as np
import pytest
import scipy.sparse as sp

from swelab import bloch, dynamics, fem, helmholtz, linalg
from swelab.dynamics import (
    CheckpointFormatError,
    PlaneWaveSpec,
    RossbyParams,
    State,
    SweParams,
)
from swelab.fem import Field
from swelab.linalg import SolverError
from swelab.mesh import build_equilateral_torus, build_right_triangle_torus, write_mesh

from .oracles import random_field


def _random_state(mesh, seed=0):
    ops = fem.operators(mesh)
    u = random_field(ops.v, seed=seed)
    eta = random_field(ops.p2, seed=seed + 1)
    return State(u, eta, 0.0)


def test_params_validation():
    with pytest.raises(ValueError):
        SweParams(c2=0.0)
    with pytest.raises(ValueError):
        SweParams(beta=-1.0)
    with pytest.raises(ValueError):
        RossbyParams(f0=0.0, beta=1.0, c2=1.0)
    with pytest.raises(ValueError):
        RossbyParams(f0=1.0, beta=1.0, c2=-2.0)


def test_geostrophic_state_is_steady():
    mesh = build_equilateral_torus(4, 4, 0.25)
    ops = fem.operators(mesh)
    params = SweParams(f0=2.0, c2=1.5)
    eta0 = random_field(ops.p2, seed=3)
    eta0.coeffs -= ops.p2_mean(eta0.coeffs)
    state = dynamics.geostrophic_init(eta0, params)
    u0, e0 = state.u.coeffs.copy(), state.eta.coeffs.copy()
    for _ in range(20):
        state = dynamics.step_midpoint(state, 0.05, params)
    scale = max(np.abs(u0).max(), np.abs(e0).max())
    assert np.abs(state.u.coeffs - u0).max() < 1e-12 * scale
    assert np.abs(state.eta.coeffs - e0).max() < 1e-12 * scale


def test_geostrophic_requires_rotation():
    mesh = build_equilateral_torus(2, 2, 1.0)
    ops = fem.operators(mesh)
    with pytest.raises(ValueError):
        dynamics.geostrophic_init(Field.zeros(ops.p2), SweParams(f0=0.0))


@pytest.mark.parametrize("dt", [0.2, 0.01])
def test_energy_conserved(dt):
    mesh = build_right_triangle_torus(3, 3, 1.0, 1.0)
    params = SweParams(f0=1.3, c2=2.0)
    state = _random_state(mesh, seed=11)
    e0 = dynamics.energy(state, params)
    for _ in range(50):
        state = dynamics.step_midpoint(state, dt, params)
    assert abs(dynamics.energy(state, params) - e0) < 1e-11 * e0
    assert np.isclose(state.time, 50 * dt)


def test_mass_conserved():
    mesh = build_equilateral_torus(3, 3, 0.5)
    ops = fem.operators(mesh)
    params = SweParams(f0=0.7, c2=1.0)
    state = _random_state(mesh, seed=5)
    m0 = ops.p2_mean(state.eta.coeffs)
    for _ in range(30):
        state = dynamics.step_midpoint(state, 0.07, params)
    assert abs(ops.p2_mean(state.eta.coeffs) - m0) < 1e-13 * max(abs(m0), 1.0)


def test_inertial_oscillation_exact_angle():
    # uniform u with flat surface: the step is a pure rotation by an angle
    # set by the midpoint tangent map, so the discrete phase is predictable
    mesh = build_right_triangle_torus(2, 2, 1.0, 1.0)
    params = SweParams(f0=1.7, c2=1.0)
    state = dynamics.inertial_init(mesh, "physical", seed=8)
    u0 = state.u.coeffs.reshape(-1, 2)[0].copy()
    dt = 0.3
    n = 25
    for _ in range(n):
        state = dynamics.step_midpoint(state, dt, params)
    uu = state.u.coeffs.reshape(-1, 2)
    assert np.abs(uu - uu[0]).max() < 1e-12  # remains uniform
    theta = -n * 2.0 * math.atan(params.f0 * dt / 2.0)
    R = np.array([[math.cos(theta), -math.sin(theta)],
                  [math.sin(theta), math.cos(theta)]])
    assert np.abs(uu[0] - R @ u0).max() < 1e-12
    assert np.abs(state.eta.coeffs).max() < 1e-13


def test_spurious_init_stays_spurious():
    mesh = build_equilateral_torus(3, 3, 1.0)
    params = SweParams(f0=1.1, c2=1.0)
    state = dynamics.inertial_init(mesh, "spurious", seed=2)
    n0 = np.linalg.norm(state.u.coeffs)
    for _ in range(40):
        state = dynamics.step_midpoint(state, 0.11, params)
    assert np.abs(state.eta.coeffs).max() < 1e-13 * n0
    parts = helmholtz.decompose(state.u)
    resolved = np.linalg.norm(
        np.concatenate([parts.phi.coeffs, parts.psi.coeffs, parts.mean]))
    assert resolved < 1e-11 * n0
    assert abs(np.linalg.norm(state.u.coeffs) - n0) < 1e-11 * n0


def test_inertial_init_rejects_unknown_mode():
    mesh = build_right_triangle_torus(2, 2, 1.0, 1.0)
    with pytest.raises(ValueError):
        dynamics.inertial_init(mesh, "sideways")


def test_exact_plane_wave_solves_continuous_equations():
    params = SweParams(f0=math.pi, c2=1.0)
    spec = PlaneWaveSpec(k=(2 * math.pi, 4 * math.pi), amplitude=0.7, sign=-1)
    t0, h = 0.37, 1e-6
    pts = np.random.default_rng(9).uniform(0, 1, size=(5, 2))
    u_fn, eta_fn = dynamics.exact_plane_wave(spec, params, t=t0)
    up, _ = dynamics.exact_plane_wave(spec, params, t=t0 + h)
    um, _ = dynamics.exact_plane_wave(spec, params, t=t0 - h)
    _, ep = dynamics.exact_plane_wave(spec, params, t=t0 + h)
    _, em = dynamics.exact_plane_wave(spec, params, t=t0 - h)
    for x in pts:
        u_t = (up(x) - um(x)) / (2 * h)
        eta_t = (ep(x) - em(x)) / (2 * h)
        ex, ey = np.array([h, 0.0]), np.array([0.0, h])
        grad_eta = np.array([
            (eta_fn(x + ex) - eta_fn(x - ex)) / (2 * h),
            (eta_fn(x + ey) - eta_fn(x - ey)) / (2 * h),
        ])
        div_u = ((u_fn(x + ex)[0] - u_fn(x - ex)[0])
                 + (u_fn(x + ey)[1] - u_fn(x - ey)[1])) / (2 * h)
        u = u_fn(x)
        perp = np.array([-u[1], u[0]])
        mom = u_t + params.f0 * perp + params.c2 * grad_eta
        assert np.abs(mom).max() < 1e-5
        assert abs(eta_t + div_u) < 1e-5


def test_plane_wave_validation():
    params = SweParams(f0=1.0, c2=1.0)
    with pytest.raises(ValueError):
        dynamics.exact_plane_wave(PlaneWaveSpec(k=(0.0, 0.0)), params)
    mesh = build_right_triangle_torus(2, 2, 1.0, 1.0)
    with pytest.raises(ValueError):
        dynamics.exact_plane_wave(PlaneWaveSpec(k=(1.0, 0.0)), params, mesh=mesh)


def test_l2_error_vanishes_on_projected_exact():
    mesh = build_right_triangle_torus(4, 4, 1.0, 1.0)
    ops = fem.operators(mesh)
    fn = lambda x: np.cos(2 * math.pi * x[..., 0])
    eta = fem.collocate(ops.p2, fn)
    # collocation of a smooth function on a coarse grid: small but nonzero
    err = dynamics.l2_error_p2(eta, fn)
    assert 0 < err < 0.05
    exact_zero = dynamics.l2_error_p2(Field.zeros(ops.p2), lambda x: 0.0 * x[..., 0])
    assert exact_zero == 0.0


def test_run_convergence_validation():
    with pytest.raises(ValueError):
        dynamics.run_convergence([8], "collocated")
    with pytest.raises(ValueError):
        dynamics.run_convergence([16, 8], "collocated")
    with pytest.raises(ValueError):
        dynamics.run_convergence([4, 8], "smoothed")


def test_solve_rossby_conserves_invariant():
    mesh = build_equilateral_torus(4, 4, 0.5)
    ops = fem.operators(mesh)
    params = RossbyParams(f0=1.0, beta=0.4, c2=2.0)
    psi0 = random_field(ops.p2, seed=14)
    psi0.coeffs -= ops.p2_mean(psi0.coeffs)
    traj = dynamics.solve_rossby(psi0, dt=0.05, T=2.0, params=params)
    inv = traj.invariant
    assert inv.shape == traj.times.shape == (41,)
    assert traj.psis.shape == (41, ops.p2.n_dofs)
    assert np.abs(inv - inv[0]).max() < 1e-11 * abs(inv[0])
    # the mean stays zero along the way
    for row in traj.psis[::10]:
        assert abs(ops.p2_mean(row)) < 1e-11


def test_solve_rossby_rejects_bad_input():
    mesh = build_equilateral_torus(3, 3, 0.5)
    ops = fem.operators(mesh)
    params = RossbyParams(f0=1.0, beta=0.4, c2=1.0)
    bad = Field(ops.p2, np.ones(ops.p2.n_dofs))
    with pytest.raises(ValueError):
        dynamics.solve_rossby(bad, dt=0.1, T=1.0, params=params)
    good = random_field(ops.p2, seed=1)
    good.coeffs -= ops.p2_mean(good.coeffs)
    with pytest.raises(ValueError):
        dynamics.solve_rossby(good, dt=0.1, T=1.0, params=params, fhat=(0.0, 0.0))
    with pytest.raises(ValueError):
        dynamics.solve_rossby(good, dt=-0.1, T=1.0, params=params)


def test_split_solve_converges_or_raises():
    # the generalized CG converges whatever the size of the skew part; a
    # tolerance below rounding cannot be met and raises
    sym = np.array([[2.0, -1.0], [-1.0, 2.0]])
    b = np.array([1.0, 2.0])
    for strength in (0.1, 3.0, 300.0):
        A = sp.csr_matrix(sym + [[0.0, strength], [-strength, 0.0]])
        y = linalg.Solver(A).solve(b, tol=1e-13, x0=np.zeros(2))
        assert np.linalg.norm(b - A @ y) <= 1e-13 * np.linalg.norm(b)
    with pytest.raises(SolverError, match="failed to converge"):
        linalg.Solver(A).solve(b, tol=1e-20)


@pytest.mark.parametrize("dt_omega", [3.0, 10.0])
def test_solve_rossby_large_dt_conserves_invariant(dt_omega):
    # lattice mode (1, 1) carries the largest Rossby frequency of this torus;
    # the step solve converges far beyond dt = 2 / max|omega|
    params = RossbyParams(f0=1e-4, beta=1e-12, c2=1e5)
    mesh = build_equilateral_torus(16, 32, 1e5)
    ops = fem.operators(mesh)
    omega, _ = bloch.lattice_rossby_mode(mesh, 1, 1, params)
    psi0 = random_field(ops.p2, seed=21)
    psi0.coeffs -= ops.p2_mean(psi0.coeffs)
    dt = dt_omega / abs(omega)
    traj = dynamics.solve_rossby(psi0, dt=dt, T=3 * dt, params=params)
    assert len(traj.times) == 4
    assert np.abs(traj.invariant - traj.invariant[0]).max() < 1e-11 * traj.invariant[0]


def test_checkpoint_roundtrip(tmp_path):
    mesh = build_equilateral_torus(3, 2, 0.5)
    write_mesh(mesh, tmp_path / "grid.txt")
    state = _random_state(mesh, seed=20)
    state = dynamics.step_midpoint(state, 0.123, SweParams(f0=0.4, c2=1.0))
    dynamics.write_checkpoint(tmp_path / "chk.txt", state, "grid.txt")

    mesh2, state2 = dynamics.read_checkpoint(tmp_path / "chk.txt")
    assert np.array_equal(mesh2.vertices, mesh.vertices)
    assert np.array_equal(state2.u.coeffs, state.u.coeffs)
    assert np.array_equal(state2.eta.coeffs, state.eta.coeffs)
    assert state2.time == state.time


def test_checkpoint_format_errors(tmp_path):
    mesh = build_right_triangle_torus(2, 2, 1.0, 1.0)
    write_mesh(mesh, tmp_path / "grid.txt")
    state = _random_state(mesh, seed=1)
    dynamics.write_checkpoint(tmp_path / "chk.txt", state, "grid.txt")
    lines = (tmp_path / "chk.txt").read_text().splitlines()

    u_header = next(i for i, l in enumerate(lines) if l.startswith("u "))
    bad = lines.copy()
    bad[u_header] = "u 7"
    (tmp_path / "bad1.txt").write_text("\n".join(bad) + "\n")
    with pytest.raises(CheckpointFormatError) as exc:
        dynamics.read_checkpoint(tmp_path / "bad1.txt")
    assert exc.value.lineno == u_header + 1

    bad = lines.copy()
    bad[u_header + 2] = "zzz"
    (tmp_path / "bad2.txt").write_text("\n".join(bad) + "\n")
    with pytest.raises(CheckpointFormatError) as exc:
        dynamics.read_checkpoint(tmp_path / "bad2.txt")
    assert exc.value.lineno == u_header + 3

    (tmp_path / "bad3.txt").write_text("\n".join(lines[: u_header + 3]) + "\n")
    with pytest.raises(CheckpointFormatError):
        dynamics.read_checkpoint(tmp_path / "bad3.txt")

    (tmp_path / "bad4.txt").write_text("time 0.0\n")
    with pytest.raises(CheckpointFormatError):
        dynamics.read_checkpoint(tmp_path / "bad4.txt")


def test_step_midpoint_is_linear():
    mesh = build_right_triangle_torus(2, 3, 1.0, 1.0)
    params = SweParams(f0=0.9, c2=1.4)
    s1 = _random_state(mesh, seed=31)
    s2 = _random_state(mesh, seed=32)
    a, b = 0.6, -1.3
    combo = State(
        Field(s1.u.space, a * s1.u.coeffs + b * s2.u.coeffs),
        Field(s1.eta.space, a * s1.eta.coeffs + b * s2.eta.coeffs),
        0.0,
    )
    dt = 0.17
    r1 = dynamics.step_midpoint(s1, dt, params)
    r2 = dynamics.step_midpoint(s2, dt, params)
    rc = dynamics.step_midpoint(combo, dt, params)
    assert np.abs(rc.u.coeffs - a * r1.u.coeffs - b * r2.u.coeffs).max() < 1e-10
    assert np.abs(rc.eta.coeffs - a * r1.eta.coeffs - b * r2.eta.coeffs).max() < 1e-10


def test_stepped_mesh_is_freed():
    # the cached operators and steppers live on the mesh, so they must not
    # keep it alive once the caller drops it
    mesh = build_right_triangle_torus(3, 3, 1.0, 1.0)
    dynamics.step_midpoint(_random_state(mesh), 0.1, SweParams(f0=1.0, beta=0.5, c2=1.0))
    ref = weakref.ref(mesh)
    del mesh
    gc.collect()
    assert ref() is None
