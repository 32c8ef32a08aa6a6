import functools
import gc
import math
import weakref

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from swelab import FormatError, ParameterError, bloch, dynamics, fem, helmholtz, linalg
from swelab.dynamics import (
    PlaneWaveSpec,
    RossbyParams,
    State,
    SweParams,
)
from swelab.fem import Field
from swelab.linalg import SolverError
from swelab.mesh import Mesh, build_equilateral_torus, build_right_triangle_torus, write_mesh

from .oracles import (
    duffy_integrate,
    jittered_tori,
    jittered_torus,
    midpoint_step_dense,
    p2_point_value,
    random_field,
)
from .test_linalg import _bloch_count, _count_iterations


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


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", ["f0", "beta", "c2"])
@pytest.mark.parametrize("kind", [SweParams, RossbyParams])
def test_params_reject_values_that_are_not_finite(kind, name, value):
    # nan passes c2 <= 0 and beta < 0, and an infinite parameter would reach
    # the stepper's set-up; each is rejected when the parameters are built
    with pytest.raises(ParameterError, match=f"{name} must be .*finite"):
        kind(**{**dict(f0=1.0, beta=1.0, c2=1.0), name: value})


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


# the paper's mesh-generic claims, on tori that are not lattices
JITTER_SEEDS = [1, 2, 3]


@pytest.mark.parametrize("beta, steps", [(0.0, 100), (0.4, 20)])
@pytest.mark.parametrize("seed", JITTER_SEEDS)
def test_energy_conserved_on_jittered_torus(seed, beta, steps):
    mesh = jittered_torus(12, seed=seed)
    params = SweParams(f0=1.3, beta=beta, c2=1.5)
    state = _random_state(mesh, seed=seed)
    e0 = dynamics.energy(state, params)
    for _ in range(steps):
        state = dynamics.step_midpoint(state, 0.1, params)
    assert abs(dynamics.energy(state, params) - e0) <= 1e-10 * e0


@pytest.mark.parametrize("seed", JITTER_SEEDS)
def test_geostrophic_state_is_steady_on_jittered_torus(seed):
    mesh = jittered_torus(12, seed=seed)
    ops = fem.operators(mesh)
    params = SweParams(f0=2.0, c2=1.5)
    eta0 = random_field(ops.p2, seed=seed)
    eta0.coeffs -= ops.p2_mean(eta0.coeffs)
    state = dynamics.geostrophic_init(eta0, params)
    u0, e0 = state.u.coeffs.copy(), state.eta.coeffs.copy()
    for _ in range(20):
        state = dynamics.step_midpoint(state, 0.05, params)
    scale = max(np.abs(u0).max(), np.abs(e0).max())
    assert np.abs(state.u.coeffs - u0).max() <= 1e-12 * scale
    assert np.abs(state.eta.coeffs - e0).max() <= 1e-12 * scale


@settings(max_examples=8, deadline=None)
@given(mesh=jittered_tori(3, 12))
def test_spurious_state_stays_decoupled_on_jittered_torus(mesh):
    # criterion 08 on a mesh that is not a lattice: over 100 f-plane steps the
    # resolved components and the free surface stay below 1e-10 of the
    # residual energy, which keeps its norm to 1e-10
    ops = fem.operators(mesh)
    params = SweParams(f0=1.0, c2=1.0)
    state = dynamics.inertial_init(mesh, "spurious", seed=3)
    spur0 = float(state.u.coeffs @ (ops.Mv @ state.u.coeffs))
    worst_leak = worst_norm = 0.0
    for _ in range(100):
        state = dynamics.step_midpoint(state, 0.1, params)
        e = helmholtz.component_energies(state.u, c2=params.c2)
        eta_e = 0.5 * params.c2 * float(state.eta.coeffs @ (ops.M @ state.eta.coeffs))
        worst_leak = max(worst_leak,
                         (e["mean"] + e["divergent"] + e["rotational"] + eta_e) / e["residual"])
        worst_norm = max(worst_norm, abs(2.0 * e["residual"] - spur0) / spur0)
    assert worst_leak <= 1e-10
    assert worst_norm <= 1e-10


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
    # sign picks one of the two roots of the dispersion relation
    for sign in (0, 2, -3):
        with pytest.raises(ValueError, match="sign"):
            PlaneWaveSpec(k=(1.0, 0.0), sign=sign)


def test_step_midpoint_rejects_nonpositive_dt():
    mesh = build_right_triangle_torus(3, 3, 1.0, 1.0)
    for dt in (0.0, -0.1):
        with pytest.raises(ValueError, match="dt must be positive"):
            dynamics.step_midpoint(_random_state(mesh), dt, SweParams(f0=1.0, c2=1.0))


@pytest.mark.parametrize("dt", [math.nan, math.inf])
def test_step_midpoint_rejects_dt_that_is_not_finite(dt):
    # rejected before a stepper is built and cached for that dt
    mesh = build_right_triangle_torus(4, 4, 1.0, 1.0)
    with pytest.raises(ParameterError, match="dt must be positive and finite"):
        dynamics.step_midpoint(_random_state(mesh), dt, SweParams(f0=1.0, c2=1.0))
    assert "steppers" not in mesh.cache


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


def test_l2_error_matches_duffy_oracle():
    # (eta_h - f)^2 has degree 4 for a quadratic f, so the degree-5 rule and
    # the Duffy rule both integrate it exactly
    mesh = jittered_torus(4, seed=3)
    ops = fem.operators(mesh)
    eta = random_field(ops.p2, seed=12)
    f = lambda x, y: 1.0 + x - 2.0 * x * y + 0.5 * y * y
    got = dynamics.l2_error_p2(eta, lambda p: f(p[..., 0], p[..., 1]))
    err2 = 0.0
    for corners, dofs in zip(mesh.corner_coords(), ops.p2.cell_dofs()):
        local = eta.coeffs[dofs]
        err2 += duffy_integrate(
            lambda x, y: (p2_point_value(corners, local, x, y) - f(x, y)) ** 2, corners)
    assert abs(got - math.sqrt(err2)) <= 1e-12 * math.sqrt(err2)


def test_run_convergence_validation():
    with pytest.raises(ValueError):
        dynamics.run_convergence([8], "collocated")
    with pytest.raises(ValueError):
        dynamics.run_convergence([16, 8], "collocated")
    with pytest.raises(ValueError, match="strictly refining"):
        dynamics.run_convergence([4, 4, 8], "collocated")
    with pytest.raises(ValueError):
        dynamics.run_convergence([4, 8], "smoothed")
    for factor in (0.0, -2.0):
        with pytest.raises(ValueError, match="steps_factor"):
            dynamics.run_convergence([4, 8], "collocated", steps_factor=factor)


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


@pytest.mark.parametrize("dt,T", [(0.0, 1.0), (-0.1, 1.0), (0.1, -1.0), (math.nan, 1.0),
                                  (math.inf, 1.0), (0.1, math.inf), (0.1, math.nan)])
def test_solve_rossby_checks_dt_and_T_before_assembly(dt, T, monkeypatch):
    mesh = build_equilateral_torus(3, 3, 0.5)
    ops = fem.operators(mesh)
    params = RossbyParams(f0=1.0, beta=0.4, c2=1.0)
    psi0 = random_field(ops.p2, seed=1)
    psi0.coeffs -= ops.p2_mean(psi0.coeffs)
    calls = []
    real = fem.assemble_ddx_p2
    monkeypatch.setattr(fem, "assemble_ddx_p2", lambda *a: calls.append(a) or real(*a))
    with pytest.raises(ParameterError, match="dt and T must be positive and finite"):
        dynamics.solve_rossby(psi0, dt=dt, T=T, params=params)
    assert calls == []
    dynamics.solve_rossby(psi0, dt=0.1, T=0.2, params=params)
    assert len(calls) == 1


def test_solve_rossby_checks_that_d_shares_the_mass_pattern(monkeypatch):
    # K and K - beta dt D/2 are formed as data arrays on M's index arrays
    mesh = build_equilateral_torus(3, 3, 0.5)
    ops = fem.operators(mesh)
    psi0 = random_field(ops.p2, seed=1)
    psi0.coeffs -= ops.p2_mean(psi0.coeffs)
    real = fem.assemble_ddx_p2
    monkeypatch.setattr(fem, "assemble_ddx_p2", lambda *a: real(*a)[:, ::-1].tocsr())
    with pytest.raises(ValueError, match="sparsity pattern of M"):
        dynamics.solve_rossby(psi0, dt=0.1, T=0.2, params=RossbyParams(f0=1.0, beta=0.4, c2=1.0))


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

    u, eta = state.u.coeffs, state.eta.coeffs
    want = ["mesh grid.txt", f"time {state.time:.17g}", f"u {u.size}", *[f"{v:.17g}" for v in u],
            f"eta {eta.size}", *[f"{v:.17g}" for v in eta]]
    assert (tmp_path / "chk.txt").read_text() == "\n".join(want) + "\n"

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
    with pytest.raises(FormatError) as exc:
        dynamics.read_checkpoint(tmp_path / "bad1.txt")
    assert exc.value.lineno == u_header + 1

    bad = lines.copy()
    bad[u_header + 2] = "zzz"
    (tmp_path / "bad2.txt").write_text("\n".join(bad) + "\n")
    with pytest.raises(FormatError) as exc:
        dynamics.read_checkpoint(tmp_path / "bad2.txt")
    assert exc.value.lineno == u_header + 3

    # a file that ends early reports line 0
    (tmp_path / "bad3.txt").write_text("\n".join(lines[: u_header + 3]) + "\n")
    with pytest.raises(FormatError, match="end of file") as exc:
        dynamics.read_checkpoint(tmp_path / "bad3.txt")
    assert exc.value.lineno == 0

    (tmp_path / "bad4.txt").write_text("time 0.0\n")
    with pytest.raises(FormatError) as exc:
        dynamics.read_checkpoint(tmp_path / "bad4.txt")
    assert exc.value.lineno == 1

    # a mesh file that parses but has a clockwise face: corners (and their
    # shifts) 1 and 2 of the first face swapped
    mesh_lines = (tmp_path / "grid.txt").read_text().splitlines()
    row = 2 + mesh.n_v  # after the comment, the header and the vertices
    face = mesh_lines[row].split()
    mesh_lines[row] = " ".join(face[:1] + face[2:0:-1] + face[3:5] + face[7:9] + face[5:7])
    (tmp_path / "cw.txt").write_text("\n".join(mesh_lines) + "\n")
    (tmp_path / "bad5.txt").write_text("\n".join(["mesh cw.txt"] + lines[1:]) + "\n")
    with pytest.raises(FormatError, match="counter-clockwise") as exc:
        dynamics.read_checkpoint(tmp_path / "bad5.txt")
    assert exc.value.lineno == 1 and exc.value.path == tmp_path / "bad5.txt"

    # a mesh file that does not parse is reported at its own path and line
    (tmp_path / "short.txt").write_text("\n".join(mesh_lines[:4]) + "\n")
    (tmp_path / "bad6.txt").write_text("\n".join(["mesh short.txt"] + lines[1:]) + "\n")
    with pytest.raises(FormatError, match="end of file") as exc:
        dynamics.read_checkpoint(tmp_path / "bad6.txt")
    assert exc.value.lineno == 0 and exc.value.path == str(tmp_path / "short.txt")


# lines of a checkpoint on the 2 x 2 right torus: 1 mesh, 2 time, 3 the u
# header and 4-51 its 48 coefficients, 52 the eta header and 53-68 eta
@pytest.mark.parametrize("lineno, text, message", [
    (1, "grid.txt", "expected 'mesh <path>'"),
    (2, "time", "expected 'time <t>'"),
    (2, "time later", "'later' is not a number"),
    (2, "time nan", "'nan' is not finite"),
    (3, "u", "expected 'u <count>'"),
    (3, "u many", "bad u count"),
    (3, "u 47", "u has 47 coefficients, mesh needs 48"),
    (4, "1.5 2.5", "is not a number"),
    (5, "", "'' is not a number"),
    (51, "inf", "'inf' is not finite"),
    (52, "eta 48", "eta has 48 coefficients, mesh needs 16"),
    (60, "-nan", "'-nan' is not finite"),
    (68, "1e999", "'1e999' is not finite"),
])
def test_checkpoint_rejects_malformed_lines(tmp_path, lineno, text, message):
    mesh = build_right_triangle_torus(2, 2, 1.0, 1.0)
    write_mesh(mesh, tmp_path / "grid.txt")
    dynamics.write_checkpoint(tmp_path / "chk.txt", _random_state(mesh, seed=3), "grid.txt")
    lines = (tmp_path / "chk.txt").read_text().splitlines()
    assert len(lines) == 68 and lines[2] == "u 48" and lines[51] == "eta 16"
    lines[lineno - 1] = text
    (tmp_path / "bad.txt").write_text("\n".join(lines) + "\n")
    with pytest.raises(FormatError, match=message) as exc:
        dynamics.read_checkpoint(tmp_path / "bad.txt")
    assert exc.value.lineno == lineno


def test_checkpoint_errors_before_assembly(tmp_path, monkeypatch):
    # a checkpoint whose header or counts are wrong is rejected without
    # assembling the operators; a good one assembles them once
    mesh = build_right_triangle_torus(3, 3, 1.0, 1.0)
    write_mesh(mesh, tmp_path / "grid.txt")
    dynamics.write_checkpoint(tmp_path / "chk.txt", _random_state(mesh, seed=2), "grid.txt")
    lines = (tmp_path / "chk.txt").read_text().splitlines()
    calls = []
    real = fem.operators
    monkeypatch.setattr(fem, "operators", lambda m: calls.append(m) or real(m))
    for row, text in ((1, "time later"), (2, "u 5")):
        bad = lines.copy()
        bad[row] = text
        (tmp_path / "bad.txt").write_text("\n".join(bad) + "\n")
        with pytest.raises(FormatError) as exc:
            dynamics.read_checkpoint(tmp_path / "bad.txt")
        assert exc.value.lineno == row + 1
        assert calls == []
    dynamics.read_checkpoint(tmp_path / "chk.txt")
    assert len(calls) == 1


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


@pytest.mark.parametrize("beta", [0.0, 0.4])
@pytest.mark.parametrize("kind", ["right", "equilateral", "jittered"])
def test_step_matches_dense_oracle(kind, beta):
    mesh = {
        "right": lambda: build_right_triangle_torus(4, 3, 1.0, 0.75),
        "equilateral": lambda: build_equilateral_torus(4, 4, 0.25),
        "jittered": lambda: jittered_torus(4, seed=7),
    }[kind]()
    params = SweParams(f0=1.3, beta=beta, c2=1.5)
    dt = 0.1
    state = _random_state(mesh, seed=40)
    u, eta = state.u.coeffs, state.eta.coeffs
    worst = 0.0
    for _ in range(20):
        state = dynamics.step_midpoint(state, dt, params, tol=1e-14)
        u, eta = midpoint_step_dense(mesh, u, eta, dt, params.f0, params.beta, params.c2)
        worst = max(worst,
                    np.linalg.norm(state.u.coeffs - u) / np.linalg.norm(u),
                    np.linalg.norm(state.eta.coeffs - eta) / np.linalg.norm(eta))
    assert worst <= 1e-12


FOLD_MESHES = {
    "right": lambda: build_right_triangle_torus(4, 3, 1.0, 0.75),
    "equilateral": lambda: build_equilateral_torus(4, 4, 0.25),
    "jittered": lambda: jittered_torus(4, seed=7),
}


def _rotation(ops, dt, params):
    """Dense W = (Mv + (dt/2) C)^{-1} Mv, assembled apart from the stepper."""
    if params.beta == 0.0:
        gamma = 0.5 * params.f0 * dt
        return (np.eye(ops.v.n_dofs) - gamma * ops.P.toarray()) / (1.0 + gamma ** 2)
    Mv = ops.Mv.toarray()
    C = fem.assemble_coriolis(ops.v, params.f0, params.beta).toarray()
    return np.linalg.solve(Mv + 0.5 * dt * C, Mv)


@pytest.mark.parametrize("beta", [0.0, 0.4])
@pytest.mark.parametrize("kind", sorted(FOLD_MESHES))
def test_folded_step_operators_match_their_definitions(kind, beta):
    # the set-up folds W into couple = (dt/2) E^T Mv W, stored as CSR, and
    # applies W through rotate, one vector at a time; on the f-plane W is
    # node_rotation at every velocity node.  One step must be the unfolded
    # midpoint step
    mesh = FOLD_MESHES[kind]()
    ops = fem.operators(mesh)
    params, dt = SweParams(f0=1.3, beta=beta, c2=1.5), 0.1
    stepper = dynamics._Stepper(mesh, dt, params)
    W, E, Mv = _rotation(ops, dt, params), ops.E.toarray(), ops.Mv.toarray()
    rotated = np.column_stack([stepper.rotate(e) for e in np.eye(ops.v.n_dofs)])
    assert stepper.couple.format == "csr"
    checks = [(stepper.couple.toarray(), 0.5 * dt * E.T @ Mv @ W), (rotated, W)]
    if beta == 0.0:
        checks.append((np.kron(np.eye(3 * mesh.n_f), stepper.node_rotation), W))
    else:
        assert stepper.node_rotation is None
    for got, want in checks:
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()

    state = _random_state(mesh, seed=44)
    u, eta = state.u.coeffs, state.eta.coeffs
    M = ops.M.toarray()
    S = M + 0.25 * params.c2 * dt * dt * (E.T @ Mv @ W @ E)
    eta_m = np.linalg.solve(S, M @ eta + 0.5 * dt * (E.T @ Mv @ W @ u))
    u_next = 2.0 * W @ (u - 0.5 * params.c2 * dt * (E @ eta_m)) - u
    stepped = stepper.step(state, 1e-14)
    assert np.linalg.norm(stepped.u.coeffs - u_next) <= 1e-13 * np.linalg.norm(u_next)
    eta_next = 2.0 * eta_m - eta
    assert np.linalg.norm(stepped.eta.coeffs - eta_next) <= 1e-13 * np.linalg.norm(eta_next)


def test_transit_slopes_on_jittered_tori(monkeypatch):
    # the paper's third-order claim off the lattice: ``run_convergence``
    # with its meshes jittered, held to criterion 05's bounds
    monkeypatch.setattr(dynamics, "build_right_triangle_torus",
                        lambda nx, ny, lx, ly: jittered_torus(nx, seed=1))
    collocated = dynamics.run_convergence([8, 16, 32], "collocated")
    projected = dynamics.run_convergence([8, 16, 32], "projected")
    assert 1.7 <= collocated.order <= 2.4
    assert projected.order >= 2.7


@pytest.mark.parametrize("beta", [1e-3, 1e-4])
def test_beta_plane_step_follows_quasigeostrophy_away_from_the_seam(beta):
    # a balanced Rossby mode stepped by the shallow-water equations and by
    # the quasi-geostrophic equation for 1/20 of its period, with f0 = c2 = 1
    # so that (c2/f0) eta is eta; f jumps by beta Ly across y = 0, so only
    # the band 0.35 Ly < y < 0.65 Ly is compared.  There the difference,
    # relative to max |psi|, measured 6.05e-3 at beta = 1e-3 and 7.51e-4 at
    # beta = 1e-4, against 1.8 near the seam
    mesh = build_equilateral_torus(12, 24, 1.0)
    ops = fem.operators(mesh)
    rparams = RossbyParams(f0=1.0, beta=beta, c2=1.0)
    omega, psi_hat = bloch.lattice_rossby_mode(mesh, 1, 1, rparams)
    psi0 = Field(ops.p2, np.real(psi_hat))
    T, n_steps = 2.0 * math.pi / abs(omega) / 20, 40
    qg = dynamics.solve_rossby(psi0, T / n_steps, T, rparams).psis[-1]
    params = SweParams(f0=1.0, beta=beta, c2=1.0)
    state = dynamics.geostrophic_init(psi0, params)
    for _ in range(n_steps):
        state = dynamics.step_midpoint(state, T / n_steps, params)
    y = ops.p2.dof_points()[:, 1] / mesh.lattice[1, 1]
    band = (0.35 < y) & (y < 0.65)
    scale = np.abs(psi0.coeffs).max()
    # the mode itself moves by 0.31 of max |psi| over the interval
    assert np.abs(qg - psi0.coeffs)[band].max() >= 0.2 * scale
    diff = np.abs(state.eta.coeffs - qg)[band].max() / scale
    assert diff <= 1.25e-2 * (beta / 1e-3)


# --------------------------------------------------------------------------
# spectrum census on meshes that are not lattices: every frequency of the
# semi-discrete operator is accounted for


def _frequencies(S, G):
    """The frequencies omega of y' = G^-1 S y for S skew and G symmetric
    definite: the eigenvalues of the Hermitian i C^-1 S C^-T with G = C C^T."""
    Ci = np.linalg.inv(np.linalg.cholesky(G))
    return np.linalg.eigvalsh(1j * (Ci @ S @ Ci.T))


@settings(max_examples=12, deadline=None)
@given(mesh=jittered_tori(3, 6), f0=st.floats(0.1, 5.0), sign=st.sampled_from([-1.0, 1.0]),
       c2=st.floats(0.1, 10.0))
def test_fplane_spectrum_census_on_jittered_torus(mesh, f0, sign, c2):
    # M_v u' = -C u - c2 M_v E eta, M eta' = E^T M_v u is skew in the energy
    # inner product diag(M_v, c2 M).  Its frequencies are exactly: n_P2 at 0
    # (the geostrophic modes and the mean of eta), n_v - 2 (n_P2 - 1) at |f0|
    # (the constant velocities and the residual space), and
    # +-sqrt(f0^2 + c2 mu_j) for the positive eigenvalues mu_j of (L, M).
    # Over 150 random draws the worst deviation was 1.03e-14 of max |omega|
    f0 *= sign
    ops = fem.operators(mesh)
    Mv, M, E, L = (X.toarray() for X in (ops.Mv, ops.M, ops.E, ops.L))
    C = fem.assemble_coriolis(ops.v, f0).toarray()
    n_v, n_p2 = Mv.shape[0], M.shape[0]
    S = np.block([[-C, -c2 * Mv @ E], [c2 * E.T @ Mv, np.zeros((n_p2, n_p2))]])
    G = np.block([[Mv, np.zeros((n_v, n_p2))], [np.zeros((n_p2, n_v)), c2 * M]])
    omega = _frequencies(S, G)
    tol = 1e-12 * np.abs(omega).max()
    zero = np.abs(omega) <= tol
    inertial = np.abs(np.abs(omega) - abs(f0)) <= tol
    assert zero.sum() == n_p2
    assert inertial.sum() == n_v - 2 * (n_p2 - 1)
    Ci = np.linalg.inv(np.linalg.cholesky(M))
    mu = np.linalg.eigvalsh(Ci @ L @ Ci.T)
    assert abs(mu[0]) <= 1e-12 * mu[-1] < mu[1]
    gravity = np.sqrt(f0 * f0 + c2 * mu[1:])
    rest = np.sort(omega[~zero & ~inertial])
    assert rest.shape == (2 * (n_p2 - 1),)
    assert np.abs(rest - np.sort(np.concatenate([-gravity, gravity]))).max() <= tol


def _midpoint_map(mesh, dt, params):
    """The dense matrix of step_midpoint on (u, eta), column by column."""
    ops = fem.operators(mesh)
    n_v = ops.v.n_dofs
    columns = []
    for e in np.eye(n_v + ops.p2.n_dofs):
        state = dynamics.step_midpoint(State(Field(ops.v, e[:n_v]), Field(ops.p2, e[n_v:]), 0.0),
                                       dt, params, tol=1e-14)
        columns.append(np.concatenate([state.u.coeffs, state.eta.coeffs]))
    return np.column_stack(columns)


@pytest.mark.parametrize("f0, c2, dt", [(1.3, 1.5, 0.1), (-0.7, 4.0, 0.3)])
def test_midpoint_map_spectrum_on_jittered_torus(f0, c2, dt):
    # the step maps a mode of frequency omega to e^{i theta} times itself,
    # tan(theta / 2) = omega dt / 2, for the omega of the f-plane census above:
    # n_P2 at 0, half of n_v - 2 (n_P2 - 1) at f0 and half at -f0, and
    # +-sqrt(f0^2 + c2 mu_j).  The beta-plane step, seam included, conserves
    # energy, so all its eigenvalues have modulus 1.  On jittered 4 x 4 tori
    # (seeds 1, 2, 3, 7; dt 0.1 to 0.5) the angles were within 6.7e-15 and
    # the moduli within 1.1e-14
    mesh = jittered_torus(4, seed=7)
    ops = fem.operators(mesh)
    n_v, n_p2 = ops.v.n_dofs, ops.p2.n_dofs
    lam = np.linalg.eigvals(_midpoint_map(mesh, dt, SweParams(f0=f0, c2=c2)))
    M, L = ops.M.toarray(), ops.L.toarray()
    Ci = np.linalg.inv(np.linalg.cholesky(M))
    gravity = np.sqrt(f0 * f0 + c2 * np.linalg.eigvalsh(Ci @ L @ Ci.T)[1:])
    inertial = np.full((n_v - 2 * (n_p2 - 1)) // 2, f0)
    omega = np.concatenate([np.zeros(n_p2), inertial, -inertial, gravity, -gravity])
    assert np.abs(np.abs(lam) - 1.0).max() <= 1e-13
    assert np.abs(np.sort(np.angle(lam)) - np.sort(2.0 * np.arctan(0.5 * omega * dt))).max() <= 1e-13
    lam = np.linalg.eigvals(_midpoint_map(mesh, dt, SweParams(f0=f0, beta=0.4, c2=c2)))
    assert np.abs(np.abs(lam) - 1.0).max() <= 1e-13


def _rossby_error(n, seed):
    """Largest relative error of the 14 largest |omega| of the quasi-geostrophic
    operator (beta = 1, L_R = 1), i omega K psi = -beta D psi with K = L + M,
    on a jittered unit n x n torus against -k_x / (|k|^2 + 1)."""
    ops = fem.operators(jittered_torus(n, seed=seed))
    D = fem.assemble_ddx_p2(ops.p2, (1.0, 0.0)).toarray()
    omega = _frequencies(D, (ops.L + ops.M).toarray())
    omega = np.sort(omega[np.argsort(-np.abs(omega))[:14]])
    # k = 2 pi (m, l): the 14 largest are at |m| <= 3, |l| <= 1, well apart
    # from the next, 0.0476 against 0.0529
    k = 2.0 * np.pi * np.arange(-4, 5)
    kx, ky = np.meshgrid(k, k)
    exact = (-kx / (kx * kx + ky * ky + 1.0)).ravel()
    exact = np.sort(exact[np.argsort(-np.abs(exact))[:14]])
    return (np.abs(omega - exact) / np.abs(exact)).max()


@pytest.mark.parametrize("seed", [0, 1])
def test_rossby_frequencies_converge_at_third_order_on_jittered_tori(seed):
    # measured on seeds 0 to 4: errors 3.7e-2 to 3.9e-2 at n = 8 and 3.0e-3
    # to 3.1e-3 at n = 16, orders 3.63 to 3.68 (2.86 from n = 4, still
    # pre-asymptotic)
    coarse, fine = _rossby_error(8, seed), _rossby_error(16, seed)
    assert fine < coarse < 0.05
    assert math.log2(coarse / fine) >= 3.0


# --------------------------------------------------------------------------
# the stepper's preconditioner: Jacobi below the Courant limit, multigrid past it

# the beta-plane workload's ocean: 100 km cells, deformation radius 3162 km
OCEAN = dict(f0=1e-4, c2=1e5)


def _stepped_preconditioner(mesh, dt, params):
    """The preconditioner of the step's solver after one step from a random
    state, by which a solver on a cell torus has left Jacobi if it is slow."""
    dynamics.step_midpoint(_random_state(mesh, seed=44), dt, params)
    return dynamics._stepper(mesh, dt, params).solver._precondition


def _transit_dt(n):
    # the dt of ``run_convergence`` at level n of levels starting at 8
    spec, params = PlaneWaveSpec(k=(2.0 * math.pi, 0.0)), SweParams(f0=math.pi, c2=1.0)
    return 2.0 * math.pi / abs(spec.omega(params)) / math.ceil(96.0 * (n / 8) ** 1.5)


SWITCH_CASES = {
    # (mesh, dt, params, initial state); stiffness ratios 0.081, 0.081, 0.045, 0.011
    "fplane-diag": lambda: (build_right_triangle_torus(48, 48, 48.0, 48.0), 0.1,
                            SweParams(f0=1.0, c2=1.0), "random"),
    "cli-default": lambda: (build_equilateral_torus(8, 8, 1.0), 0.1, SweParams(f0=1.0, c2=1.0),
                            "random"),
    "transit-8": lambda: (build_right_triangle_torus(8, 8, 1.0, 1.0), _transit_dt(8),
                          SweParams(f0=math.pi, c2=1.0), "wave"),
    "transit-32": lambda: (build_right_triangle_torus(32, 32, 1.0, 1.0), _transit_dt(32),
                           SweParams(f0=math.pi, c2=1.0), "wave"),
}


@pytest.mark.parametrize("case", list(SWITCH_CASES))
def test_slow_jacobi_solves_switch_to_bloch(case):
    # the solver reads a solve's own Jacobi work, not the stiffness ratio.
    # From transit's plane-wave states every solve takes 4 Jacobi
    # applications, below linalg._SWITCH_AFTER, and no Bloch inverse is
    # built; from random states the first solve passes the count (Jacobi
    # took 27), switches, and one Bloch application then solves M + kappa L
    mesh, dt, params, init = SWITCH_CASES[case]()
    solver = dynamics._stepper(mesh, dt, params).solver
    calls = _count_iterations(solver)
    if init == "wave":
        spec = PlaneWaveSpec(k=(2.0 * math.pi, 0.0))
        for mode in ("collocated", "projected"):
            state = dynamics._initial_state(mesh, mode, spec, params)
            for _ in range(5):
                del calls[:]
                state = dynamics.step_midpoint(state, dt, params, tol=1e-12)
                assert 0 < len(calls) < linalg._SWITCH_AFTER
        assert _bloch_count(calls) == 0 and solver._better is not None
        return
    state = _random_state(mesh, seed=45)
    for step in range(4):
        del calls[:]
        state = dynamics.step_midpoint(state, dt, params, tol=1e-12)
        jacobi = linalg._SWITCH_AFTER if step == 0 else 0
        assert len(calls) - jacobi == _bloch_count(calls) <= 2
        assert _bloch_count(calls) > 0


@pytest.mark.parametrize("beta,dt", [(1e-12, 600.0), (1e-10, 6e3), (0.0, 6e3), (0.0, 6e4)])
def test_stiffness_dominated_steps_use_multigrid(beta, dt):
    # beta-plane at the workload's dt = 600 s (Courant number 1.9), and the
    # f-plane at large dt, where kappa = c2 dt^2 / (4 (1 + gamma^2)) nears c2 / f0^2.
    # On the lattice the first step's Jacobi iterations pass the count.  The
    # f-plane's S = M + kappa L is translation invariant there and takes the
    # exact Bloch solve.  The beta-plane's f = f0 + beta y is not: at beta =
    # 1e-12 S deviates from its translation average by 2.4e-5 of max|S| and
    # takes the Bloch inverse of the average; at beta = 1e-10 and dt = 6e3 by
    # 0.27, past linalg._AVERAGE_WITHIN, and takes the V-cycle.  S on the same
    # torus jittered is offered the V-cycle by its stiffness ratio and takes it
    # once the first step's Jacobi iterations pass the count
    params = SweParams(beta=beta, **OCEAN)
    lattice = build_equilateral_torus(16, 32, 1e5)
    assert isinstance(dynamics._stepper(lattice, dt, params).solver._precondition, functools.partial)
    B = _stepped_preconditioner(lattice, dt, params)
    assert isinstance(B, linalg._VCycle if beta == 1e-10 else linalg._Bloch)
    unit = jittered_torus(16, seed=2)
    jittered = Mesh(1.6e6 * unit.vertices, unit.triangles, unit.shifts, 1.6e6 * unit.lattice)
    assert isinstance(dynamics._stepper(jittered, dt, params).solver._precondition, functools.partial)
    assert isinstance(_stepped_preconditioner(jittered, dt, params), linalg._VCycle)


def test_refused_lattice_steps_take_the_vcycle_at_any_stiffness():
    # beta = 3e-9 at dt = 100 s: stiffness ratio 0.77, far below
    # _MULTIGRID_ABOVE, but S lies 4.0e-2 of max|S| off its translation
    # average.  On the lattice the first solve's Jacobi iterations pass the
    # count, the Bloch build refuses, and the V-cycle takes over; off it the
    # ratio keeps Jacobi
    params, dt = SweParams(beta=3e-9, **OCEAN), 100.0
    lattice = build_equilateral_torus(16, 32, 1e5)
    assert isinstance(_stepped_preconditioner(lattice, dt, params), linalg._VCycle)
    unit = jittered_torus(16, seed=2)
    jittered = Mesh(1.6e6 * unit.vertices, unit.triangles, unit.shifts, 1.6e6 * unit.lattice)
    assert isinstance(_stepped_preconditioner(jittered, dt, params), functools.partial)


def test_large_courant_step_matches_dense_oracle():
    # Courant number sqrt(c2) dt / h = 19; 8 x 16 keeps the dense oracle small
    mesh = build_equilateral_torus(8, 16, 1e5)
    params, dt = SweParams(beta=1e-10, **OCEAN), 6e3
    assert isinstance(_stepped_preconditioner(mesh, dt, params), linalg._VCycle)
    state = _random_state(mesh, seed=42)
    u, eta = state.u.coeffs, state.eta.coeffs
    e0 = dynamics.energy(state, params)
    for _ in range(3):
        state = dynamics.step_midpoint(state, dt, params, tol=1e-13)
        u, eta = midpoint_step_dense(mesh, u, eta, dt, params.f0, params.beta, params.c2)
        assert np.linalg.norm(state.u.coeffs - u) <= 1e-12 * np.linalg.norm(u)
        assert np.linalg.norm(state.eta.coeffs - eta) <= 1e-12 * np.linalg.norm(eta)
        assert abs(dynamics.energy(state, params) - e0) <= 1e-10 * e0


def test_large_courant_multigrid_step_matches_jacobi():
    # the same Courant number on 16 x 32, whose hierarchy has an aggregated level
    mesh = build_equilateral_torus(16, 32, 1e5)
    params, dt = SweParams(beta=1e-10, **OCEAN), 6e3
    multigrid, jacobi = dynamics._Stepper(mesh, dt, params), dynamics._Stepper(mesh, dt, params)
    jacobi.solver = linalg.Solver(jacobi.solver.A)
    state = ref = _random_state(mesh, seed=43)
    e0 = dynamics.energy(state, params)
    for _ in range(5):
        state, ref = multigrid.step(state, 1e-12), jacobi.step(ref, 1e-12)
        assert abs(dynamics.energy(state, params) - e0) <= 1e-10 * e0
    assert isinstance(multigrid.solver._precondition, linalg._VCycle)
    assert len(multigrid.solver._precondition.levels) == 2
    assert isinstance(jacobi.solver._precondition, functools.partial)
    for a, b in ((state.u, ref.u), (state.eta, ref.eta)):
        assert np.linalg.norm(a.coeffs - b.coeffs) <= 1e-10 * np.linalg.norm(b.coeffs)


def test_stepped_mesh_is_freed():
    # the cached operators, steppers and error tables live on the mesh, so
    # they must not keep it alive once the caller drops it
    mesh = build_right_triangle_torus(3, 3, 1.0, 1.0)
    state = dynamics.step_midpoint(_random_state(mesh), 0.1, SweParams(f0=1.0, beta=0.5, c2=1.0))
    dynamics.l2_error_p2(state.eta, lambda x: x[..., 0])
    assert "l2_tables" in mesh.cache
    del state
    ref = weakref.ref(mesh)
    del mesh
    gc.collect()
    assert ref() is None


WARM_START_MESHES = {
    "right": lambda: build_right_triangle_torus(16, 16, 1.0, 1.0),
    "equilateral": lambda: build_equilateral_torus(12, 12, 1.0 / 12),
    "jittered": lambda: jittered_torus(16, seed=3),
}


def _warm_start_initial(mesh, init, params):
    ops = fem.operators(mesh)
    if init == "random":
        return _random_state(mesh, seed=21)
    if init == "geostrophic":
        return dynamics.geostrophic_init(random_field(ops.p2, seed=22), params)
    return dynamics.inertial_init(mesh, "spurious", seed=23)


def _count_inner_cg(monkeypatch):
    calls = []
    cg = linalg.Solver._cg
    monkeypatch.setattr(linalg.Solver, "_cg", lambda self, r, tol: calls.append(1) or cg(self, r, tol))
    return calls


@pytest.mark.parametrize("init", ["random", "geostrophic", "spurious"])
@pytest.mark.parametrize("kind", sorted(WARM_START_MESHES))
def test_warm_started_decompose_matches_cold(kind, init, monkeypatch):
    # the step predicts the next potentials in closed form and decompose
    # starts from them; every 10th step the result is compared with a cold
    # decompose, each part in the norm of the velocity it contributes,
    # relative to |u| (the geostrophic phi and the spurious potentials are
    # rounding-level, so they have no scale of their own)
    mesh = WARM_START_MESHES[kind]()
    ops = fem.operators(mesh)
    params = SweParams(f0=1.3, c2=1.5)
    state = _warm_start_initial(mesh, init, params)
    helmholtz.decompose(state.u, tol=1e-12)
    calls = _count_inner_cg(monkeypatch)
    hinted_calls, worst = [], 0.0
    for i in range(100):
        state = dynamics.step_midpoint(state, 0.1, params, tol=1e-12)
        assert np.array_equal(mesh.cache["potentials"][0], state.u.coeffs)
        del calls[:]
        warm = helmholtz.decompose(state.u, tol=1e-12)
        hinted_calls.append(len(calls))
        if i % 10 == 9:
            slot = mesh.cache.pop("potentials")
            cold = helmholtz.decompose(state.u, tol=1e-12)
            mesh.cache["potentials"] = slot
            scale = np.linalg.norm(state.u.coeffs)
            worst = max(
                worst,
                np.linalg.norm(ops.E @ (warm.phi.coeffs - cold.phi.coeffs)) / scale,
                np.linalg.norm(ops.E @ (warm.psi.coeffs - cold.psi.coeffs)) / scale,
                np.linalg.norm(warm.residual.coeffs - cold.residual.coeffs) / scale,
            )
    assert worst <= 1e-10
    # the predictions carry the error of the first, cold solve, whose residual
    # may lie just under tol and which the steps rotate between phi and psi;
    # one inner CG correction removes it, and later predictions meet tol as
    # they are
    if init == "random":
        corrected = [i for i, c in enumerate(hinted_calls) if c]
        assert len(corrected) <= 1 and all(i < 20 for i in corrected), corrected


def test_stale_or_wrong_potentials_slot_gives_the_cold_answer():
    mesh = build_right_triangle_torus(16, 16, 1.0, 1.0)
    ops = fem.operators(mesh)
    params = SweParams(f0=1.0, c2=1.0)
    state = _random_state(mesh, seed=30)
    helmholtz.decompose(state.u)
    state = dynamics.step_midpoint(state, 0.1, params)
    state.u.coeffs[::7] += 1.0
    warm = helmholtz.decompose(state.u)
    mesh.cache.pop("potentials")
    cold = helmholtz.decompose(state.u)
    for a, b in ((warm.phi, cold.phi), (warm.psi, cold.psi), (warm.residual, cold.residual)):
        assert np.array_equal(a.coeffs, b.coeffs)

    # a slot that names u but holds wrong potentials costs iterations only
    rng = np.random.default_rng(31)
    mesh.cache["potentials"] = (state.u.coeffs.copy(), rng.standard_normal(ops.p2.n_dofs),
                                rng.standard_normal(ops.p2.n_dofs))
    wrong = helmholtz.decompose(state.u)
    scale = np.linalg.norm(state.u.coeffs)
    for a, b in ((wrong.phi, cold.phi), (wrong.psi, cold.psi)):
        assert np.linalg.norm(ops.E @ (a.coeffs - b.coeffs)) <= 1e-10 * scale
    assert np.linalg.norm(wrong.residual.coeffs - cold.residual.coeffs) <= 1e-10 * scale


def test_beta_plane_step_writes_no_prediction():
    mesh = build_right_triangle_torus(6, 6, 1.0, 1.0)
    state = _random_state(mesh, seed=32)
    helmholtz.decompose(state.u)
    slot = mesh.cache["potentials"]
    dynamics.step_midpoint(state, 0.1, SweParams(f0=1.0, beta=0.5, c2=1.0))
    assert mesh.cache["potentials"] is slot
