"""End-to-end acceptance gate.

Each test prints one PASS/FAIL line (run with -s to see them all) and then
asserts, so the suite both reports and enforces the target numbers.
"""
import math
import time

import numpy as np
import scipy.linalg

from swelab import bloch, dynamics, fem, helmholtz
from swelab.dynamics import PlaneWaveSpec, RossbyParams, State, SweParams
from swelab.fem import Field
from swelab.mesh import build_equilateral_torus, build_right_triangle_torus

from .oracles import random_field, rank_by_svd, recompose, spurious_dimension


def _report(num, name, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {num:02d} {name}: {status} ({detail})", flush=True)
    assert ok, f"criterion {num} {name}: {detail}"


def test_01_reduction_oracle():
    t0 = time.perf_counter()
    report = bloch.oracle_report(n_samples=100, seed=0)
    elapsed = time.perf_counter() - t0
    worst = max(err for err, _ in report.values())
    ok = worst <= 1e-12 and elapsed < 5.0
    _report(1, "reduction-oracle", ok,
            f"max entrywise discrepancy {worst:.2e} over 100 zone points, "
            f"{elapsed:.2f}s")


def test_02_gravity_accuracy_order():
    t0 = time.perf_counter()
    params = SweParams(f0=1.0, c2=1.0)
    khat = np.array([math.cos(0.35), math.sin(0.35)])  # generic direction
    exact = math.sqrt(params.f0**2 + params.c2)  # |k| = 1
    scales = np.array([0.4, 0.2, 0.1, 0.05])
    errs = []
    for kdx_mag in scales:
        dx = kdx_mag  # |k| = 1 so dx equals the grid Rossby number
        res = bloch.gravity_branches(khat * kdx_mag, params, dx=dx)
        errs.append(abs(res.omegas[0] - exact))
    order = np.polyfit(np.log(scales), np.log(errs), 1)[0]

    at0 = bloch.gravity_branches((0.0, 0.0), params)
    rel_f0 = abs(at0.omegas[0] - params.f0) / params.f0
    elapsed = time.perf_counter() - t0
    ok = order >= 3.0 and rel_f0 <= 1e-12 and elapsed < 1.0
    _report(2, "gravity-accuracy", ok,
            f"fitted order {order:.3f} (need >= 3), omega(0) rel err {rel_f0:.1e}, "
            f"{elapsed:.2f}s")


def test_03_branch_structure():
    params = SweParams(f0=1.0, c2=1.0)
    d = 2.0 * math.pi / math.sqrt(3.0)
    normals = [(m + 0.5) * math.pi / 3.0 for m in range(3)]

    def boundary_radius(phi):
        return d / max(abs(math.cos(phi - th)) for th in normals)

    four = all(
        bloch.gravity_branches(k, params).omegas.shape == (4,)
        and np.linalg.matrix_rank(bloch.reduced_matrices(k).Mr) == 4
        for k in [(0.3, 0.1), (1.0, -0.8), (0.0, 0.0)]
    )

    monotone = True
    worst_dip = 0.0
    for j in range(8):
        phi = 2.0 * math.pi * j / 8.0
        r = boundary_radius(phi)
        ts = np.linspace(0.0, 1.0, 40)
        omegas = [
            bloch.gravity_branches(
                (t * r * math.cos(phi), t * r * math.sin(phi)), params).omegas[0]
            for t in ts
        ]
        dips = np.diff(omegas)
        worst_dip = min(worst_dip, dips.min())
        if dips.min() < -1e-10 * max(omegas):
            monotone = False

    angles = np.linspace(0.0, 2.0 * math.pi, 48, endpoint=False)
    aniso = 0.0
    for rad in (0.15, 0.3):
        vals = np.array([
            bloch.gravity_branches((rad * math.cos(a), rad * math.sin(a)),
                                   params).omegas[0]
            for a in angles
        ])
        aniso = max(aniso, (vals.max() - vals.min()) / vals.mean())

    ok = four and monotone and aniso <= 0.02
    _report(3, "branch-structure", ok,
            f"4 branches, worst ray dip {worst_dip:.1e}, "
            f"anisotropy {aniso:.2e} for |kdx| <= 0.3 (limit 2e-2)")


def test_04_rossby_dispersion():
    t0 = time.perf_counter()
    params = RossbyParams(f0=1e-4, beta=1e-12, c2=1e5)
    dx = 1e5

    rows = bloch.sweep_brillouin(32, "rossby", params, dx=dx)
    n_flags = sum(int(np.any(r.ambiguous)) for r in rows)

    # independent realness audit: rebuild the pencil and inspect raw spectra
    worst_im = 0.0
    rng = np.random.default_rng(2)
    for r in [rows[i] for i in rng.choice(len(rows), size=40, replace=False)]:
        red = bloch.reduced_matrices(r.kdx)
        K = red.Lr / dx**2 + (params.f0**2 / params.c2) * red.Mr
        east = np.array([1.0, 0.0])
        T = (params.beta / dx) * (east[0] * red.D1r + east[1] * red.D2r)
        if np.abs(T).max() < 1e-13 * params.beta / dx:
            continue
        mu = scipy.linalg.eigvals(np.linalg.solve(K, T))
        scale = np.abs(mu).max()
        worst_im = max(worst_im, np.abs(mu.real).max() / scale)
        got = np.sort(r.omegas)
        assert np.allclose(got, np.sort(-mu.imag), rtol=1e-8, atol=1e-25)

    at0 = bloch.rossby_branches((0.0, 0.0), params, dx=dx)
    zero_ok = np.abs(at0.omegas).max() == 0.0

    worst_rel = 0.0
    n_checked = 0
    for r in rows + [bloch.rossby_branches((0.5, 0.0), params, dx=dx)]:
        kdx = np.asarray(r.kdx)
        if np.linalg.norm(kdx) > 0.5 or np.linalg.norm(kdx) == 0.0:
            continue
        k_east = kdx[0] / dx
        kk = (kdx @ kdx) / dx**2
        exact = -params.beta * k_east / (kk + params.f0**2 / params.c2)
        if exact == 0.0:
            continue
        fund = r.omegas[list(r.labels).index("fundamental")]
        worst_rel = max(worst_rel, abs(fund - exact) / abs(exact))
        n_checked += 1

    elapsed = time.perf_counter() - t0
    ok = (n_flags == 0 and worst_im <= 1e-10 and zero_ok
          and worst_rel <= 0.10 and n_checked > 10 and elapsed < 10.0)
    _report(4, "rossby-dispersion", ok,
            f"realness defect {worst_im:.1e}, omega(0)=0, fundamental branch off by "
            f"{worst_rel:.2e} max over {n_checked} points with |kdx|<=0.5, "
            f"{n_flags} ambiguity flags on 32x32 grid, {elapsed:.2f}s")


def test_05_time_domain_convergence():
    t0 = time.perf_counter()
    levels = [8, 16, 32]
    slopes = {}
    for mode in ("collocated", "projected"):
        res = dynamics.run_convergence(levels, mode)
        slopes[mode] = np.polyfit(np.log(res.dxs), np.log(res.errors), 1)[0]
    elapsed = time.perf_counter() - t0
    ok = (2.7 <= slopes["projected"]
          and 1.7 <= slopes["collocated"] <= 2.4
          and elapsed < 120.0)
    _report(5, "time-convergence", ok,
            f"collocated slope {slopes['collocated']:.2f} (need [1.7, 2.4]), "
            f"projected slope {slopes['projected']:.2f} (need >= 2.7), "
            f"{elapsed:.1f}s")


def test_06_geostrophic_steadiness():
    mesh = build_equilateral_torus(4, 4, 0.5)
    ops = fem.operators(mesh)
    params = SweParams(f0=1.2, c2=2.0)
    eta0 = random_field(ops.p2, seed=6)
    eta0.coeffs -= ops.p2_mean(eta0.coeffs)
    worst = 0.0
    for dt in (0.01, 1.0, 40.0):
        state = dynamics.geostrophic_init(eta0, params)
        u0, e0 = state.u.coeffs.copy(), state.eta.coeffs.copy()
        scale = max(np.abs(u0).max(), np.abs(e0).max())
        for _ in range(100):
            state = dynamics.step_midpoint(state, dt, params)
        worst = max(worst,
                    np.abs(state.u.coeffs - u0).max() / scale,
                    np.abs(state.eta.coeffs - e0).max() / scale)
    ok = worst <= 1e-10
    _report(6, "geostrophic-steadiness", ok,
            f"relative drift {worst:.2e} over 100 steps at dt in {{0.01, 1, 40}}")


def test_07_helmholtz_suite():
    t0 = time.perf_counter()
    mesh = build_equilateral_torus(4, 4, 0.5)
    ops = fem.operators(mesh)
    u = random_field(ops.v, seed=77)
    parts = helmholtz.decompose(u)
    pieces = [
        ops.constant_field(parts.mean),
        ops.E @ parts.phi.coeffs,
        ops.P @ (ops.E @ parts.psi.coeffs),
        parts.residual.coeffs,
    ]
    scale = u.coeffs @ (ops.Mv @ u.coeffs)
    worst_orth = max(
        abs(pieces[i] @ (ops.Mv @ pieces[j])) / scale
        for i in range(4) for j in range(i + 1, 4)
    )
    back = recompose(parts, mesh)
    roundtrip = (np.linalg.norm(back.coeffs - u.coeffs)
                 / np.linalg.norm(u.coeffs))
    pythagoras = abs(sum(p @ (ops.Mv @ p) for p in pieces) - scale) / scale

    dims_ok = True
    for m, n_f in ((build_right_triangle_torus(2, 2, 1.0, 1.0), 8),
                   (build_equilateral_torus(3, 3, 1.0), 18)):
        o = fem.operators(m)
        cols = [o.constant_field((1.0, 0.0)), o.constant_field((0.0, 1.0))]
        cols.extend(o.E.toarray().T)
        cols.extend((o.P @ o.E).toarray().T)
        brute = o.v.n_dofs - rank_by_svd(np.column_stack(cols))
        dims_ok &= spurious_dimension(m) == 2 * m.n_f == brute

    elapsed = time.perf_counter() - t0
    ok = (worst_orth <= 1e-9 and roundtrip <= 1e-10 and pythagoras <= 1e-9
          and dims_ok and elapsed < 30.0)
    _report(7, "helmholtz-suite", ok,
            f"orthogonality {worst_orth:.1e}, roundtrip {roundtrip:.1e}, "
            f"energy identity {pythagoras:.1e}, spurious dim = 2 n_f by rank, "
            f"{elapsed:.1f}s")


def test_08_mode_decoupling():
    mesh = build_equilateral_torus(3, 3, 1.0)
    ops = fem.operators(mesh)
    params = SweParams(f0=1.0, c2=1.0)
    dt = 0.1

    state = dynamics.inertial_init(mesh, "spurious", seed=3)
    spur0 = float(state.u.coeffs @ (ops.Mv @ state.u.coeffs))
    worst_leak = 0.0
    worst_norm = 0.0
    for _ in range(1000):
        state = dynamics.step_midpoint(state, dt, params)
        e = helmholtz.component_energies(state.u, c2=params.c2)
        eta_e = 0.5 * params.c2 * float(
            state.eta.coeffs @ (ops.M @ state.eta.coeffs))
        worst_leak = max(worst_leak,
                         (e["divergent"] + e["rotational"] + eta_e) / e["residual"])
        norm = 2.0 * e["residual"]
        worst_norm = max(worst_norm, abs(norm - spur0) / spur0)

    ufull = random_field(ops.v, seed=4)
    filtered = helmholtz.project_hp2(ufull)
    eta = random_field(ops.p2, seed=5)
    state = State(filtered, eta, 0.0)
    worst_spur = 0.0
    for _ in range(1000):
        state = dynamics.step_midpoint(state, dt, params)
        e = helmholtz.component_energies(state.u, c2=params.c2)
        total = sum(e.values())
        worst_spur = max(worst_spur, e["residual"] / total)

    ok = worst_leak <= 1e-10 and worst_norm <= 1e-10 and worst_spur <= 1e-16
    _report(8, "mode-decoupling", ok,
            f"resolved+eta leakage {worst_leak:.1e}, spurious norm drift "
            f"{worst_norm:.1e}, filtered spurious fraction {worst_spur:.1e} "
            f"over 1000 steps")


def test_09_energy_conservation():
    mesh = build_equilateral_torus(3, 3, 1.0)
    params = SweParams(f0=1.3, c2=2.0)
    ops = fem.operators(mesh)
    state = State(random_field(ops.v, seed=9),
                  random_field(ops.p2, seed=10), 0.0)
    e0 = dynamics.energy(state, params)
    worst = 0.0
    for _ in range(1000):
        state = dynamics.step_midpoint(state, 0.1, params)
        worst = max(worst, abs(dynamics.energy(state, params) - e0) / e0)
    ok = worst <= 1e-10
    _report(9, "energy-conservation", ok,
            f"relative drift {worst:.2e} over 1000 steps")


def _phase_slope_frequency(amps, dt):
    """Undistorted frequency from a complex amplitude series."""
    phases = np.unwrap(np.angle(amps))
    slope = np.polyfit(dt * np.arange(len(amps)), phases, 1)[0]
    omega_d = -slope
    return (2.0 / dt) * math.tan(omega_d * dt / 2.0)


def test_10_cross_validation():
    dx = 1.0
    mesh = build_equilateral_torus(21, 42, dx)
    ops = fem.operators(mesh)

    # gravity: drive the stepper with a lattice Bloch mode near kdx = 0.3
    params = SweParams(f0=1.0, c2=1.0)
    omega_b, u_hat, eta_hat = bloch.lattice_gravity_mode(mesh, 1, 1, params)
    kdx = bloch.reciprocal_wavevector(mesh, 1, 1) * dx
    ref = bloch.gravity_branches(kdx, params, dx=dx).omegas[0]
    dt = 0.05 / omega_b
    state = State(Field(ops.v, np.real(u_hat)), Field(ops.p2, np.real(eta_hat)), 0.0)
    amps = [complex(eta_hat.conj() @ (ops.M @ state.eta.coeffs))]
    for _ in range(40):
        state = dynamics.step_midpoint(state, dt, params)
        amps.append(complex(eta_hat.conj() @ (ops.M @ state.eta.coeffs)))
    omega_g = _phase_slope_frequency(np.array(amps), dt)
    rel_g = abs(abs(omega_g) - ref) / ref

    # rossby: same idea through the quasigeostrophic integrator
    rparams = RossbyParams(f0=1e-4, beta=1e-12, c2=1e5)
    dx_r = 1e5
    mesh_r = build_equilateral_torus(21, 42, dx_r)
    ops_r = fem.operators(mesh_r)
    omega_rb, psi_hat = bloch.lattice_rossby_mode(mesh_r, 1, 1, rparams)
    kdx_r = bloch.reciprocal_wavevector(mesh_r, 1, 1) * dx_r
    rres = bloch.rossby_branches(kdx_r, rparams, dx=dx_r)
    ref_r = rres.omegas[list(rres.labels).index("fundamental")]
    K = (ops_r.L + (rparams.f0**2 / rparams.c2) * ops_r.M).tocsr()
    dt_r = 0.05 / abs(ref_r)
    psi0 = Field(ops_r.p2, np.real(psi_hat))
    traj = dynamics.solve_rossby(psi0, dt=dt_r, T=40 * dt_r, params=rparams)
    amps_r = np.array([complex(psi_hat.conj() @ (K @ p)) for p in traj.psis])
    omega_r = _phase_slope_frequency(amps_r, dt_r)
    rel_r = abs(omega_r - ref_r) / abs(ref_r)

    ok = rel_g <= 0.01 and rel_r <= 0.01 and abs(np.linalg.norm(kdx) - 0.3) < 0.01
    _report(10, "cross-validation", ok,
            f"gravity mode at |kdx| = {np.linalg.norm(kdx):.3f}: stepper vs bloch "
            f"rel diff {rel_g:.1e}; rossby rel diff {rel_r:.1e} (limit 1e-2)")
