"""The four benchmark workloads.

Each workload drives swelab's public functions in the order the matching
CLI subcommand uses them.  ``setup`` builds everything the timed part needs
and ends with warm-up calls that fill the package's lazy caches; ``round``
does one fixed amount of work and times each unit operation from outside,
on the ``HostClock`` it is given;
``check`` tests the round's outputs against properties of the method or
against values computed here, apart from the program.  Every failed check
counts as one failed operation.

Calls always go through the module attribute (``dynamics.step_midpoint``),
never through a name bound at import time, so that the tracer sees them.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from swelab import bloch, dynamics, fem, helmholtz, mesh

from reference import DenseBloch, SparseCG

# tolerance the CLI passes to every solve (``--tol`` default)
CLI_TOL = 1e-12


def _rel(a, b):
    return abs(a - b) / abs(b)


def _phase_slope_frequency(amps, dt):
    """Frequency of a complex amplitude series, undistorted for the midpoint rule."""
    phases = np.unwrap(np.angle(amps))
    omega_d = -np.polyfit(dt * np.arange(len(amps)), phases, 1)[0]
    return (2.0 / dt) * math.tan(omega_d * dt / 2.0)


class FplaneDiag:
    """``swelab simulate --init random --mesh-kind right``: steps with per-step diagnostics.

    Unit op: one ``step_midpoint`` plus the record the CLI writes after it
    (``component_energies`` and ``energy``).  Two singular-Laplacian CG
    solves inside ``helmholtz.decompose`` dominate it.
    """

    # long CG solves at the 9216 P2 dofs of the 48x48 torus
    reference = functools.partial(SparseCG, 96, 96, iters=220, solves=1, nominal_s=0.040)

    def __init__(self, seed, smoke):
        self.seed = seed
        self.n = 8 if smoke else 48
        self.steps = 2 if smoke else 12
        self.dt = 0.1
        self.params = dynamics.SweParams(f0=1.0, beta=0.0, c2=1.0)

    def setup(self, span):
        self.mesh = mesh.build_right_triangle_torus(self.n, self.n, float(self.n), float(self.n))
        self.setup_ok = mesh.validate(self.mesh).ok
        ops = self.ops = fem.operators(self.mesh)
        rng = np.random.default_rng(self.seed)
        self.state0 = dynamics.State(
            fem.Field(ops.v, rng.standard_normal(ops.v.n_dofs)),
            fem.Field(ops.p2, rng.standard_normal(ops.p2.n_dofs)),
            0.0,
        )
        with span("bench.prep"):
            self.e0 = helmholtz.component_energies(self.state0.u, self.params.c2, tol=CLI_TOL)
            self.energy0 = dynamics.energy(self.state0, self.params)
            dynamics.step_midpoint(self.state0, self.dt, self.params, tol=CLI_TOL)

    def _op(self, st):
        st = dynamics.step_midpoint(st, self.dt, self.params, tol=CLI_TOL)
        e = helmholtz.component_energies(st.u, self.params.c2, tol=CLI_TOL)
        return st, e, dynamics.energy(st, self.params)

    def round(self, clock):
        st = self.state0
        out = []
        for _ in range(self.steps):
            st, e, total = clock.op(self._op, st)
            out.append((st, e, total))
        return out

    def check(self, out):
        ops = self.ops
        ones = np.ones(ops.p2.n_dofs)
        mass_scale = math.sqrt(ones @ (ops.M @ ones))

        def mass(eta):
            return float(ones @ (ops.M @ eta))

        eta0 = self.state0.eta.coeffs
        mass0 = mass(eta0)
        mass_norm = mass_scale * math.sqrt(float(eta0 @ (ops.M @ eta0)))
        spur0 = self.e0["residual"]
        failed = 0
        for st, e, total in out:
            u = st.u.coeffs
            kinetic = 0.5 * float(u @ (ops.Mv @ u))
            ok = (
                _rel(total, self.energy0) <= 1e-10
                and abs(mass(st.eta.coeffs) - mass0) <= 1e-10 * mass_norm
                and _rel(sum(e.values()), kinetic) <= 1e-9
                and _rel(e["residual"], spur0) <= 1e-10
            )
            failed += not ok
        return failed


class Transit:
    """``swelab converge``: one plane wave across the unit torus per level.

    Levels 8, 16 and 32, collocated and projected initial velocity, with the
    dt schedule of ``dynamics.run_convergence``.  Unit op: one
    ``step_midpoint`` on the finest level, two thirds of all steps; the
    coarser steps and the L2 error samples of each last quarter count in the
    round only, so that the median is not pulled between per-level costs.
    """

    # many short CG solves at the 4096 P2 dofs of the finest level
    reference = functools.partial(SparseCG, 64, 64, iters=8, solves=23, nominal_s=0.039)

    def __init__(self, seed, smoke):
        self.levels = (8, 16) if smoke else (8, 16, 32)
        self.params = dynamics.SweParams(f0=math.pi, beta=0.0, c2=1.0)
        # linear problem and relative tolerances: the amplitude changes no
        # iteration count and no error ratio
        amp = float(np.random.default_rng(seed).uniform(0.5, 2.0))
        self.spec = dynamics.PlaneWaveSpec(k=(2.0 * math.pi, 0.0), amplitude=amp, sign=1)

    def _initial(self, ops, mode, u_fn, eta_fn):
        eta0 = fem.collocate(ops.p2, eta_fn)
        if mode == "collocated":
            u0 = fem.collocate(ops.v, u_fn)
        else:
            ux = fem.collocate(ops.p2, lambda x: u_fn(x)[..., 0])
            uy = fem.collocate(ops.p2, lambda x: u_fn(x)[..., 1])
            u0 = fem.project_p2vec_to_p1dg(ux, uy, ops.v)
        return dynamics.State(u0, eta0, 0.0)

    def setup(self, span):
        T = 2.0 * math.pi / abs(self.spec.omega(self.params))
        self.runs = []
        self.setup_ok = True
        for n in self.levels:
            m = mesh.build_right_triangle_torus(n, n, 1.0, 1.0)
            self.setup_ok &= mesh.validate(m).ok
            ops = fem.operators(m)
            n_steps = max(1, math.ceil(96.0 * (n / self.levels[0]) ** 1.5))
            dt = T / n_steps
            u_fn, eta_fn = dynamics.exact_plane_wave(self.spec, self.params, t=0.0, mesh=m)
            inits = {mode: self._initial(ops, mode, u_fn, eta_fn)
                     for mode in ("collocated", "projected")}
            with span("bench.prep"):
                dynamics.step_midpoint(inits["projected"], dt, self.params)
            self.runs.append((n, m, dt, n_steps, inits))

    def round(self, clock):
        errors = {}
        for mode in ("collocated", "projected"):
            errs = []
            for n, m, dt, n_steps, inits in self.runs:
                step = clock.op if n == self.levels[-1] else clock.call
                st = inits[mode]
                sample_from = n_steps - max(1, n_steps // 4)
                worst = 0.0
                for i in range(n_steps):
                    st = step(dynamics.step_midpoint, st, dt, self.params)
                    if i >= sample_from:
                        _, eta_fn = dynamics.exact_plane_wave(
                            self.spec, self.params, t=st.time, mesh=m)
                        worst = max(worst, dynamics.l2_error_p2(st.eta, eta_fn))
                errs.append(worst)
            errors[mode] = errs
        return errors

    def check(self, errors):
        dxs = np.log([1.0 / n for n in self.levels])

        def slope(errs):
            return float(np.polyfit(dxs, np.log(errs), 1)[0])

        col, proj = slope(errors["collocated"]), slope(errors["projected"])
        return int(not 1.7 <= col <= 2.4) + int(not proj >= 2.7)


class BetaPlane:
    """β-plane midpoint steps on an equilateral torus, then one Rossby trajectory.

    The steps are ``swelab simulate --mesh-kind equilateral --beta ...``
    without the per-step decomposition; the trajectory integrates the
    lattice Rossby mode (1, 1) with ``solve_rossby`` as acceptance
    criterion 10 does.  Unit op: one β-plane step; the trajectory counts in
    the round only.
    """

    # CG solves of the fixed-point loops at the 8192 P2 dofs of the 32x64 torus
    reference = functools.partial(SparseCG, 64, 128, iters=20, solves=8, nominal_s=0.037)

    F0, BETA, C2, DX = 1e-4, 1e-12, 1e5, 1e5

    def __init__(self, seed, smoke):
        self.seed = seed
        self.n1, self.n2 = (8, 16) if smoke else (32, 64)
        self.steps = 2 if smoke else 30
        self.rossby_steps = 40
        self.dt = 600.0
        self.params = dynamics.SweParams(f0=self.F0, beta=self.BETA, c2=self.C2)
        self.rparams = dynamics.RossbyParams(f0=self.F0, beta=self.BETA, c2=self.C2)

    def setup(self, span):
        self.mesh = mesh.build_equilateral_torus(self.n1, self.n2, self.DX)
        self.setup_ok = mesh.validate(self.mesh).ok
        ops = self.ops = fem.operators(self.mesh)
        rng = np.random.default_rng(self.seed)
        self.state0 = dynamics.State(
            fem.Field(ops.v, rng.standard_normal(ops.v.n_dofs)),
            fem.Field(ops.p2, rng.standard_normal(ops.p2.n_dofs)),
            0.0,
        )
        self.energy0 = dynamics.energy(self.state0, self.params)

        _, self.psi_hat = bloch.lattice_rossby_mode(self.mesh, 1, 1, self.rparams)
        self.k = mesh.reciprocal_wavevector(self.mesh, 1, 1)
        ref = bloch.rossby_branches(self.k * self.DX, self.rparams, dx=self.DX)
        self.omega_ref = ref.omegas[list(ref.labels).index("fundamental")]
        self.dt_r = 0.05 / abs(self.omega_ref)
        amp, phase = rng.uniform(0.5, 2.0), rng.uniform(0.0, 2.0 * math.pi)
        self.psi0 = fem.Field(ops.p2, np.real(amp * np.exp(1j * phase) * self.psi_hat))

        with span("bench.prep"):
            dynamics.step_midpoint(self.state0, self.dt, self.params, tol=CLI_TOL)

    def round(self, clock):
        st = self.state0
        energies = []
        for _ in range(self.steps):
            st = clock.op(dynamics.step_midpoint, st, self.dt, self.params, tol=CLI_TOL)
            energies.append(dynamics.energy(st, self.params))
        traj = dynamics.solve_rossby(
            self.psi0, dt=self.dt_r, T=self.rossby_steps * self.dt_r, params=self.rparams)
        return energies, traj

    def check(self, out):
        energies, traj = out
        failed = sum(_rel(e, self.energy0) > 1e-10 for e in energies)

        ops = self.ops
        K = ops.L + self.rparams.lr2_inv * ops.M
        inv = np.array([float(p @ (K @ p)) for p in traj.psis])
        failed += int(np.max(np.abs(inv - inv[0])) > 1e-10 * inv[0])

        amps = np.array([complex(self.psi_hat.conj() @ (K @ p)) for p in traj.psis])
        omega = _phase_slope_frequency(amps, self.dt_r)
        kk = float(self.k @ self.k)
        continuous = -self.BETA * self.k[0] / (kk + self.rparams.lr2_inv)
        failed += int(_rel(omega, self.omega_ref) > 0.01)
        failed += int(_rel(omega, continuous) > 0.10)
        return failed


class Dispersion:
    """``swelab oracle`` then ``swelab dispersion`` and ``swelab rossby``.

    Set-up runs the closed-form oracle report; the unit op is one gravity
    sweep plus one Rossby sweep over the hexagonal zone at ``ngrid``, both
    through ``bloch.sweep_brillouin``.
    """

    reference = functools.partial(DenseBloch, 70, nominal_s=0.040)

    F0, BETA, C2, DX = 1e-4, 1e-12, 1e5, 1e5

    def __init__(self, seed, smoke):
        self.seed = seed
        self.samples = 20 if smoke else 2000
        self.ngrid = 8 if smoke else 32
        self.sweeps = 1 if smoke else 4
        self.gparams = dynamics.SweParams(f0=self.F0, beta=0.0, c2=self.C2)
        self.rparams = dynamics.RossbyParams(f0=self.F0, beta=self.BETA, c2=self.C2)

    def setup(self, span):
        report = bloch.oracle_report(self.samples, seed=self.seed)
        self.setup_ok = max(err for err, _ in report.values()) <= 1e-12
        with span("bench.prep"):
            bloch.gravity_branches((0.3, 0.1), self.gparams, dx=self.DX)
            bloch.rossby_branches((0.3, 0.1), self.rparams, dx=self.DX)

    def _op(self):
        grav = bloch.sweep_brillouin(self.ngrid, "gravity", self.gparams, dx=self.DX)
        ross = bloch.sweep_brillouin(self.ngrid, "rossby", self.rparams, fhat=(0.0, 1.0), dx=self.DX)
        return grav, ross

    def round(self, clock):
        return [clock.op(self._op) for _ in range(self.sweeps)]

    def check(self, out):
        failed = 0
        for grav, ross in out:
            ok = all(r.omegas.min() >= self.F0 for r in grav)
            for r in grav:
                a = math.hypot(*r.kdx)
                if 0.0 < a <= 0.5:
                    k = np.asarray(r.kdx) / self.DX
                    exact = math.sqrt(self.F0 ** 2 + self.C2 * float(k @ k))
                    ok &= abs(r.omegas[0] - exact) <= 1e-3 * a ** 3 * exact
            ok &= not any(any(r.ambiguous) for r in ross)
            for r in ross:
                a = math.hypot(*r.kdx)
                k = np.asarray(r.kdx) / self.DX
                exact = -self.BETA * k[0] / (float(k @ k) + self.rparams.lr2_inv)
                if 0.0 < a <= 0.5 and exact != 0.0:
                    fund = r.omegas[list(r.labels).index("fundamental")]
                    ok &= _rel(fund, exact) <= 0.10
            failed += not ok
        return failed


WORKLOADS = {
    "fplane-diag": FplaneDiag,
    "transit": Transit,
    "beta-plane": BetaPlane,
    "dispersion": Dispersion,
}
