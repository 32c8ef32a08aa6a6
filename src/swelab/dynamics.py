"""Linear rotating shallow-water dynamics for the mixed pair.

Semi-discrete system:

    M_v du/dt = -C u - c2 G eta
    M  deta/dt = +G^T u

integrated with the implicit midpoint rule.  The velocity block of the
midpoint system is eliminated exactly (it is block diagonal per element),
leaving one solve with the Schur complement S for the midpoint elevation.
On the f-plane S reduces in closed form to the symmetric positive definite
M + kappa L, because rotated gradients of quadratics are mass-orthogonal
to gradients of quadratics.  On the beta-plane S also has a skew-symmetric
part, which ``linalg.Solver`` splits off; that converges only while the
skew part is small against the symmetric one, i.e. for small beta dt.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import fem, linalg
from .fem import Field
from .mesh import build_right_triangle_torus

__all__ = [
    "SweParams",
    "RossbyParams",
    "State",
    "PlaneWaveSpec",
    "step_midpoint",
    "energy",
    "geostrophic_init",
    "inertial_init",
    "exact_plane_wave",
    "l2_error_p2",
    "ConvergenceResult",
    "run_convergence",
    "RossbyTrajectory",
    "solve_rossby",
    "CheckpointFormatError",
    "write_checkpoint",
    "read_checkpoint",
]


@dataclass(frozen=True)
class SweParams:
    f0: float = 0.0
    beta: float = 0.0
    c2: float = 1.0

    def __post_init__(self):
        if self.c2 <= 0:
            raise ValueError("c2 must be positive")
        if self.beta < 0:
            raise ValueError("beta must be nonnegative")


@dataclass(frozen=True)
class RossbyParams:
    f0: float
    beta: float
    c2: float

    def __post_init__(self):
        if self.c2 <= 0:
            raise ValueError("c2 must be positive")
        if self.f0 == 0:
            raise ValueError("f0 must be nonzero (finite deformation radius)")

    @property
    def lr2_inv(self):
        """Inverse squared deformation radius f0^2 / c2."""
        return self.f0 ** 2 / self.c2


@dataclass
class State:
    u: Field
    eta: Field
    time: float = 0.0

    def __post_init__(self):
        if self.u.space.mesh is not self.eta.space.mesh:
            raise ValueError("u and eta must live on the same mesh")

    def copy(self):
        return State(self.u.copy(), self.eta.copy(), self.time)


@dataclass(frozen=True)
class PlaneWaveSpec:
    k: tuple
    amplitude: float = 1.0
    sign: int = 1

    def omega(self, params):
        k = np.asarray(self.k, dtype=float)
        return self.sign * math.sqrt(params.f0 ** 2 + params.c2 * (k @ k))


def energy(state, params):
    """Total quadratic energy 0.5 u^T M_v u + 0.5 c2 eta^T M eta."""
    ops = fem.operators(state.u.space.mesh)
    u, eta = state.u.coeffs, state.eta.coeffs
    return 0.5 * float(u @ (ops.Mv @ u)) + 0.5 * params.c2 * float(eta @ (ops.M @ eta))


# --------------------------------------------------------------------------
# implicit midpoint stepper


class _Stepper:
    """Prepared operators for one (mesh, dt, params) combination."""

    def __init__(self, mesh, dt, params):
        self.ops = ops = fem.operators(mesh)
        self.dt = dt
        self.params = params
        self.gamma = 0.5 * params.f0 * dt
        self.kappa = params.c2 * dt * dt / (4.0 * (1.0 + self.gamma ** 2))
        if params.beta == 0.0:
            # exact f-plane Schur complement
            self.Ainv = None
            self.solver = linalg.Solver(ops.M + self.kappa * ops.L)
        else:
            quad = fem.quadrature_rule(5)
            mref = fem._p1_mass_ref(quad)
            mv_blocks = 2.0 * ops.el_area[:, None, None] * np.kron(mref, np.eye(2))
            fprofile = lambda x: params.f0 + params.beta * x[..., 1]
            c_blocks = fem._coriolis_blocks(mesh, fprofile, quad)
            a_blocks = mv_blocks + 0.5 * dt * c_blocks
            self.Ainv = sp.bsr_matrix(
                (np.linalg.inv(a_blocks), np.arange(mesh.n_f), np.arange(mesh.n_f + 1)),
                shape=(6 * mesh.n_f, 6 * mesh.n_f),
            )
            K = (ops.G.T @ (self.Ainv @ ops.G)).tocsr()
            self.solver = linalg.Solver(ops.M + (params.c2 * dt * dt / 4.0) * K)

    def half_rotate(self, v):
        """Apply (I - gamma P)/(1 + gamma^2), the f-plane action of A^{-1} M_v."""
        g = self.gamma
        return (v - g * (self.ops.P @ v)) / (1.0 + g * g)

    def step(self, state, tol):
        ops, dt, c2 = self.ops, self.dt, self.params.c2
        u_n, eta_n = state.u.coeffs, state.eta.coeffs

        if self.Ainv is None:
            z = self.half_rotate(u_n)
        else:
            z = self.Ainv @ (ops.Mv @ u_n)
        rhs = ops.M @ eta_n + 0.5 * dt * (ops.E.T @ (ops.Mv @ z))
        eta_m = self.solver.solve(rhs, tol=tol, x0=eta_n)

        if self.Ainv is None:
            u_m = self.half_rotate(u_n - 0.5 * c2 * dt * (ops.E @ eta_m))
        else:
            u_m = self.Ainv @ (ops.Mv @ u_n - 0.5 * c2 * dt * (ops.G @ eta_m))

        u_next = 2.0 * u_m - u_n
        eta_next = 2.0 * eta_m - eta_n
        return State(
            Field(state.u.space, u_next),
            Field(state.eta.space, eta_next),
            state.time + dt,
        )


def _stepper(mesh, dt, params):
    per_mesh = mesh.cache.setdefault("steppers", {})
    key = (dt, params.f0, params.beta, params.c2)
    st = per_mesh.get(key)
    if st is None:
        st = _Stepper(mesh, dt, params)
        per_mesh[key] = st
    return st


def step_midpoint(state, dt, params, tol=1e-13):
    """Advance one implicit-midpoint step; inner solves to relative tol.

    On the beta-plane the skew-symmetric part of the Schur complement, which
    grows with beta and dt, must be small against its symmetric part, or the
    elevation solve raises ``linalg.SolverError``: then reduce dt.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    return _stepper(state.u.space.mesh, dt, params).step(state, tol)


# --------------------------------------------------------------------------
# initializers


def geostrophic_init(eta0, params):
    """Balanced state u = (c2/f0) perp(grad eta0); an exact fixed point."""
    if params.f0 == 0:
        raise ValueError("geostrophic balance requires f0 != 0")
    ops = fem.operators(eta0.space.mesh)
    u = (params.c2 / params.f0) * (ops.P @ (ops.E @ eta0.coeffs))
    return State(Field(ops.v, u), eta0.copy(), 0.0)


def inertial_init(mesh, mode, seed=0):
    """Oscillation initial data: eta = 0 and u either uniform or pure residual."""
    from . import helmholtz

    ops = fem.operators(mesh)
    rng = np.random.default_rng(seed)
    if mode == "physical":
        u = ops.constant_field(rng.standard_normal(2))
    elif mode == "spurious":
        raw = Field(ops.v, rng.standard_normal(ops.v.n_dofs))
        u = helmholtz.decompose(raw, tol=1e-14).residual.coeffs
    else:
        raise ValueError(f"unknown inertial mode {mode!r} (physical or spurious)")
    return State(Field(ops.v, u), Field.zeros(ops.p2), 0.0)


# --------------------------------------------------------------------------
# plane waves and the convergence experiment


def _check_compatible(k, mesh):
    m = mesh.lattice @ k / (2.0 * np.pi)
    if np.max(np.abs(m - np.round(m))) > 1e-9:
        raise ValueError(
            f"wave vector {k} is not periodic on this torus (lattice indices {m})"
        )


def exact_plane_wave(spec, params, t=0.0, mesh=None):
    """Analytic inertia-gravity wave as functions of position at time t.

    Returns (u_fn, eta_fn); u_fn maps points (..., 2) to velocities (..., 2)
    and eta_fn maps points to scalars.  The pair solves the continuous
    equations u_t + f0 u_perp = -c2 grad(eta), eta_t + div(u) = 0.
    """
    k = np.asarray(spec.k, dtype=float)
    kn = np.linalg.norm(k)
    if kn == 0:
        raise ValueError("plane wave requires a nonzero wave vector")
    if mesh is not None:
        _check_compatible(k, mesh)
    omega = spec.omega(params)
    khat = k / kn
    kperp = np.array([-khat[1], khat[0]])
    a = spec.amplitude

    def eta_fn(x):
        x = np.asarray(x, dtype=float)
        theta = x @ k - omega * t
        return (a * kn / omega) * np.cos(theta)

    def u_fn(x):
        x = np.asarray(x, dtype=float)
        theta = x @ k - omega * t
        return a * (
            np.cos(theta)[..., None] * khat
            + (params.f0 / omega) * np.sin(theta)[..., None] * kperp
        )

    return u_fn, eta_fn


def l2_error_p2(eta, exact_fn):
    """L2 norm of (eta_h - exact) via a degree-5 rule on every element."""
    space = eta.space
    mesh = space.mesh
    quad = fem.quadrature_rule(5)
    X = mesh.corner_coords()
    lam = np.atleast_2d(quad.points)
    xq = np.einsum("qk,fkc->fqc", lam, X)
    vals_h = np.einsum("qi,fi->fq", fem._p2_values(lam), eta.coeffs[space.cell_dofs()])
    vals_e = exact_fn(xq)
    _, _, area = fem._geometry(mesh)
    err2 = 2.0 * np.einsum("f,q,fq->", area, quad.weights, (vals_h - vals_e) ** 2)
    return math.sqrt(err2)


def _initial_state(mesh, ic_mode, spec, params):
    ops = fem.operators(mesh)
    u_fn, eta_fn = exact_plane_wave(spec, params, t=0.0, mesh=mesh)
    eta0 = fem.collocate(ops.p2, eta_fn)
    if ic_mode == "collocated":
        u0 = fem.collocate(ops.v, u_fn)
    elif ic_mode == "projected":
        # interpolate each component as a quadratic, then take the
        # element-local L2-best linear field
        ux = fem.collocate(ops.p2, lambda x: u_fn(x)[..., 0])
        uy = fem.collocate(ops.p2, lambda x: u_fn(x)[..., 1])
        u0 = fem.project_p2vec_to_p1dg(ux, uy, ops.v)
    else:
        raise ValueError(f"unknown ic_mode {ic_mode!r} (collocated or projected)")
    return State(u0, eta0, 0.0)


@dataclass
class ConvergenceResult:
    levels: list
    dxs: np.ndarray
    errors: np.ndarray
    n_steps: list
    ic_mode: str

    @property
    def order(self):
        return float(np.polyfit(np.log(self.dxs), np.log(self.errors), 1)[0])

    def __str__(self):
        lines = [f"ic_mode = {self.ic_mode}"]
        for n, dx, ns, e in zip(self.levels, self.dxs, self.n_steps, self.errors):
            lines.append(f"  n = {n:4d}  dx = {dx:.6g}  steps = {ns:5d}  eta L2 error = {e:.6e}")
        lines.append(f"  fitted order = {self.order:.3f}")
        return "\n".join(lines)


def run_convergence(levels, ic_mode, params=None, spec=None, steps_factor=1.0):
    """Propagate one wave across the unit torus per level; tabulate eta errors.

    The time step scales as dx^{3/2} so the midpoint scheme's quadratic-in-dt
    phase error stays subordinate to the cubic-in-dx spatial error.  The
    reported error is the peak free-surface L2 error over the final quarter
    of the transit: initialization error excites secondary modes whose phase
    relative to the carrier varies with resolution, so a single-time snapshot
    can sit anywhere in the beat envelope and scrambles the fitted slope.
    """
    if len(levels) < 2:
        raise ValueError("need at least two refinement levels")
    if sorted(levels) != list(levels):
        raise ValueError("levels must be strictly refining")
    params = params or SweParams(f0=math.pi, beta=0.0, c2=1.0)
    spec = spec or PlaneWaveSpec(k=(2.0 * math.pi, 0.0), amplitude=1.0, sign=1)

    omega = spec.omega(params)
    T = 2.0 * math.pi / abs(omega)  # one domain transit of the unit torus

    dxs, errors, steps = [], [], []
    for n in levels:
        mesh = build_right_triangle_torus(n, n, 1.0, 1.0)
        state = _initial_state(mesh, ic_mode, spec, params)
        n_steps = max(1, math.ceil(96.0 * (n / levels[0]) ** 1.5 * steps_factor))
        dt = T / n_steps
        sample_from = n_steps - max(1, n_steps // 4)
        worst = 0.0
        for i in range(n_steps):
            state = step_midpoint(state, dt, params)
            if i >= sample_from:
                _, eta_fn = exact_plane_wave(spec, params, t=state.time, mesh=mesh)
                worst = max(worst, l2_error_p2(state.eta, eta_fn))
        dxs.append(1.0 / n)
        errors.append(worst)
        steps.append(n_steps)
    return ConvergenceResult(list(levels), np.array(dxs), np.array(errors), steps, ic_mode)


# --------------------------------------------------------------------------
# discrete Rossby wave equation


@dataclass
class RossbyTrajectory:
    times: np.ndarray
    psis: np.ndarray       # (n_steps + 1, n_dofs)
    invariant: np.ndarray  # psi^T (L + M/L_R^2) psi per snapshot
    space: object

    def field(self, i):
        return Field(self.space, self.psis[i])


def solve_rossby(psi0, dt, T, params, fhat=(0.0, 1.0), tol=1e-13):
    """Integrate (L + M f0^2/c2) dpsi/dt = beta D psi by implicit midpoint.

    D is the derivative pairing along the local east direction, obtained by
    rotating the given northward unit vector fhat clockwise a quarter turn.
    The quadratic form psi^T (L + M f0^2/c2) psi is conserved because D is
    antisymmetric on a torus.

    Each step splits off the skew part beta dt D/2, which must be small
    against K = L + M f0^2/c2: a sweep contracts by dt max|omega| / 2 over the
    mesh's Rossby frequencies, so dt above about 1.7 / max|omega| (200 sweeps
    to tol 1e-13) raises ``linalg.SolverError``; then reduce dt.
    """
    fhat = np.asarray(fhat, dtype=float)
    nf = np.linalg.norm(fhat)
    if nf == 0:
        raise ValueError("fhat must be a nonzero direction")
    fhat = fhat / nf
    east = np.array([fhat[1], -fhat[0]])

    ops = fem.operators(psi0.space.mesh)
    mean0 = ops.p2_mean(psi0.coeffs)
    scale = np.linalg.norm(psi0.coeffs)
    if abs(mean0) * math.sqrt(ops.area) > 1e-10 * max(scale, 1e-300):
        raise ValueError(f"psi0 must have zero integral mean (got {mean0:.3e})")

    K = (ops.L + params.lr2_inv * ops.M).tocsr()
    D = fem.assemble_ddx_p2(ops.p2, east)

    if dt <= 0 or T <= 0:
        raise ValueError("dt and T must be positive")
    n_steps = max(1, round(T / dt))

    n = ops.p2.n_dofs
    psis = np.empty((n_steps + 1, n))
    psis[0] = psi0.coeffs
    invariant = np.empty(n_steps + 1)
    invariant[0] = float(psis[0] @ (K @ psis[0]))

    # (K - beta dt D/2) psi_{n+1} = (K + beta dt D/2) psi_n
    half = 0.5 * params.beta * dt
    solver = linalg.Solver(K - half * D)
    psi = psis[0].copy()
    for s in range(n_steps):
        psi = solver.solve(K @ psi + half * (D @ psi), tol=tol, x0=psi)
        psis[s + 1] = psi
        invariant[s + 1] = float(psi @ (K @ psi))

    times = dt * np.arange(n_steps + 1)
    return RossbyTrajectory(times, psis, invariant, psi0.space)


# --------------------------------------------------------------------------
# checkpoint files


class CheckpointFormatError(ValueError):
    def __init__(self, lineno, message):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


def write_checkpoint(path, state, mesh_path):
    """State snapshot: mesh file reference plus both coefficient vectors."""
    with open(path, "w") as fh:
        fh.write(f"mesh {mesh_path}\n")
        fh.write(f"time {state.time:.17g}\n")
        fh.write(f"u {state.u.coeffs.size}\n")
        for v in state.u.coeffs:
            fh.write(f"{v:.17g}\n")
        fh.write(f"eta {state.eta.coeffs.size}\n")
        for v in state.eta.coeffs:
            fh.write(f"{v:.17g}\n")


def _read_block(lines, i, name, count):
    vals = np.empty(count)
    for j in range(count):
        lineno = i + j + 1
        if i + j >= len(lines):
            raise CheckpointFormatError(lineno, f"{name} block truncated")
        try:
            vals[j] = float(lines[i + j])
        except ValueError:
            raise CheckpointFormatError(lineno, f"bad {name} coefficient {lines[i + j]!r}")
    return vals, i + count


def read_checkpoint(path):
    """Inverse of write_checkpoint; returns (mesh, State)."""
    import os

    from .mesh import read_mesh

    with open(path) as fh:
        lines = [ln.rstrip("\n") for ln in fh]
    if not lines or not lines[0].startswith("mesh "):
        raise CheckpointFormatError(1, "expected 'mesh <path>'")
    mesh_path = lines[0][5:].strip()
    if not os.path.isabs(mesh_path):
        mesh_path = os.path.join(os.path.dirname(os.path.abspath(path)), mesh_path)
    mesh = read_mesh(mesh_path)
    if len(lines) < 2 or not lines[1].startswith("time "):
        raise CheckpointFormatError(2, "expected 'time <t>'")
    try:
        t = float(lines[1][5:])
    except ValueError:
        raise CheckpointFormatError(2, f"bad time value {lines[1][5:]!r}")

    ops = fem.operators(mesh)
    i = 2
    fields = {}
    for name, space in (("u", ops.v), ("eta", ops.p2)):
        if i >= len(lines) or not lines[i].startswith(name + " "):
            raise CheckpointFormatError(i + 1, f"expected '{name} <count>'")
        try:
            count = int(lines[i][len(name) + 1:])
        except ValueError:
            raise CheckpointFormatError(i + 1, f"bad {name} count")
        if count != space.n_dofs:
            raise CheckpointFormatError(
                i + 1, f"{name} has {count} coefficients, mesh needs {space.n_dofs}"
            )
        vals, i = _read_block(lines, i + 1, name, count)
        fields[name] = Field(space, vals)
    return mesh, State(fields["u"], fields["eta"], t)
