"""Linear rotating shallow-water dynamics for the mixed pair.

Semi-discrete system, with the Coriolis parameter f = f0 + beta y in C:

    M_v du/dt = -C u - c2 M_v E eta
    M  deta/dt = +E^T M_v u

integrated with the implicit midpoint rule.  The velocity block of the
midpoint system, A = M_v + (dt/2) C, is block diagonal per element, so the
midpoint velocity is eliminated exactly by the rotation W = A^{-1} M_v.
That leaves one solve for the midpoint elevation with the Schur complement

    S = M + (c2 dt^2/4) E^T M_v W E.

W is fixed per (mesh, dt, params), so the stepper folds it once into the
operator couple = (dt/2) E^T M_v W of the right-hand side and applies W
itself to the new velocity.  A step is then four operator products and the
solve.

On the f-plane W applies R = [[1, gamma], [-gamma, 1]]/(1 + gamma^2), with
gamma = f0 dt/2, at every velocity node, and S reduces in closed form to the
symmetric positive definite M + kappa L, because rotated gradients of
quadratics are mass-orthogonal to gradients of quadratics.  On the beta-plane W is built face by face, S is M plus
(c2 dt/2) couple E, and S also has a skew-symmetric part, which
``linalg.Solver`` handles for any beta dt.

On a cell torus the solve starts on Jacobi, and the solver itself switches,
within the first solve whose Jacobi iterations pass
``linalg._SWITCH_AFTER``, to the Bloch inverse of S's translation average
(exact on the f-plane; 4 applications a step on the beta-plane benchmark,
where the V-cycle took 12 or 13): a random state takes 27 Jacobi
applications even at the default step, a warm-started smooth one 4.  Where
the Bloch build refuses, it switches to the V-cycle.  Off the lattice S is
mass-dominated while the gravity-wave Courant number sqrt(c2) dt / h is
below about one, and stiffness-dominated past it; the stepper reads which
from the diagonal of S and, past ``_MULTIGRID_ABOVE``, offers the solver
the V-cycle, to which it switches in the same way, else keeps Jacobi.

On a torus the beta-plane has a seam: f is evaluated at each face's
unrolled coordinates, so it jumps by beta Ly across the line y = 0, which
is y = Ly on the torus, where the paper's quasi-geostrophic limit has one
beta everywhere.  Energy is still
conserved, since C is skew face by face.  On the 12 x 24 equilateral torus
(dx = 1, f0 = c2 = 1), after 1/20 of a Rossby period from a balanced lattice
Rossby mode, (c2/f0) eta of the step and ``solve_rossby`` differ by 6.1e-3
(beta = 1e-3) and 7.5e-4 (beta = 1e-4) of max|psi| away from the seam, and
by 1.8 near it.  The model keeps the seam.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import FormatError, ParameterError, fem, helmholtz, linalg
from .fem import Field
from .mesh import _format_rows, _read_block, build_right_triangle_torus, read_mesh, validate

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
    "write_checkpoint",
    "read_checkpoint",
]


@dataclass(frozen=True)
class SweParams:
    f0: float = 0.0
    beta: float = 0.0
    c2: float = 1.0

    def __post_init__(self):
        if not 0 < self.c2 < math.inf:
            raise ParameterError("c2 must be positive and finite")
        if not 0 <= self.beta < math.inf:
            raise ParameterError("beta must be nonnegative and finite")
        if not math.isfinite(self.f0):
            raise ParameterError("f0 must be finite")


@dataclass(frozen=True)
class RossbyParams:
    f0: float
    beta: float
    c2: float

    def __post_init__(self):
        if not 0 < self.c2 < math.inf:
            raise ParameterError("c2 must be positive and finite")
        if not (self.f0 != 0 and math.isfinite(self.f0)):
            raise ParameterError("f0 must be nonzero and finite")
        if not math.isfinite(self.beta):
            raise ParameterError("beta must be finite")

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
            raise ParameterError("u and eta must live on the same mesh")


@dataclass(frozen=True)
class PlaneWaveSpec:
    k: tuple
    amplitude: float = 1.0
    sign: int = 1

    def __post_init__(self):
        if self.sign not in (1, -1):
            raise ParameterError("sign must be +1 or -1")

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


# off a cell torus, Schur complements whose stiffness part exceeds this many
# times their mass part, on the average diagonal entry, are offered the
# V-cycle.  Offered at every ratio, it made 50 steps from a random state on
# jittered tori of 100 km cells slower at ratio 0.9 (f-plane: 86 -> 136 ms at
# 32 x 32, 327 -> 540 at 64 x 64) and 8.1 (188 -> 217 at 32 x 32), faster
# only on the 64 x 64 beta-plane at 8.1 (1595 -> 1181)
_MULTIGRID_ABOVE = 18.0


class _Stepper:
    """The operators of one implicit-midpoint step for one (mesh, dt, params).

    With W = (M_v + (dt/2) C)^{-1} M_v, block diagonal per face, a step
    solves S eta_m = M eta_n + (dt/2) E^T M_v W u_n and sets
    u_{n+1} = 2 W (u_n - (c2 dt/2) E eta_m) - u_n.  The set-up folds W into
    couple = (dt/2) E^T M_v W, fixed per (mesh, dt, params), so that a step is

        eta_m   = S^{-1} (M eta_n + couple u_n),
        u_{n+1} = 2 W (u_n - (c2 dt/2) E eta_m) - u_n,   eta_{n+1} = 2 eta_m - eta_n:

    four operator products and the solve.  (reflect (u_n - g) - g, with
    reflect = 2 W - I and g = (c2 dt/2) E eta_m, makes twice the temporary
    vectors and the benchmark's transit step 9 % slower; CHANGES.md.)  Only
    the set-up tells the f-plane from the beta-plane.  On the f-plane every
    W_f is kron(I_3, R), with ``node_rotation`` R = [[1, gamma], [-gamma, 1]]
    / (1 + gamma^2) and gamma = f0 dt/2, applied as one dense product, and
    S = M + kappa L shares M's index arrays.  On the beta-plane ``node_rotation`` is None, W_f comes
    from one batched solve, W is a block-sparse matrix, and S is
    M + (c2 dt/2) couple E.  On the f-plane R also rotates the potentials, so
    a step from the u_n in the mesh's potentials slot advances the slot to
    u_{n+1} (``helmholtz._advance_potentials``) for the next decompose.
    """

    def __init__(self, mesh, dt, params):
        self.ops = ops = fem.operators(mesh)
        self.dt, self.c2 = dt, params.c2
        c2dt2 = params.c2 * dt * dt
        X, Jinv, area = fem._face_geometry(mesh)
        Eb = fem._gradient_blocks(Jinv)
        if params.beta == 0.0:
            gamma = 0.5 * params.f0 * dt
            # gamma * gamma, unlike gamma ** 2, overflows to inf instead of raising,
            # so a huge dt reaches the solver, which refuses the matrix
            scale = 1.0 + gamma * gamma
            R = self.node_rotation = np.array([[1.0, gamma], [-gamma, 1.0]]) / scale
            W = np.kron(np.eye(3), R)
            self.rotate = lambda v: (v.reshape(-1, 6) @ W.T).ravel()
            # M_v's face blocks are 2 |T_f| times one 6 x 6 matrix, and
            # kron(p1_mass, I) W = kron(p1_mass, R)
            couple = np.kron(fem._ref_tensors(fem._RULES[4]).p1_mass, R).T @ Eb
            couple *= 2.0 * area[:, None, None]
            # M and L share one pattern, so S is one new data array
            S = sp.csr_matrix((ops.M.data + (c2dt2 / (4.0 * scale)) * ops.L.data,
                               ops.M.indices, ops.M.indptr), shape=ops.M.shape)
        else:
            self.node_rotation = None
            # W_f = A_f^{-1} Mv_f by one batched solve
            quad = fem.quadrature_rule(5)
            mv = fem._p1dg_mass_blocks(area, quad)
            coriolis = fem._coriolis_blocks(X, area, params.f0, params.beta, quad)
            W = np.linalg.solve(mv + 0.5 * dt * coriolis, mv)
            couple = np.swapaxes(mv @ W, 1, 2) @ Eb
        del Eb
        # E^T M_v W as CSC, whose product with E keeps S's indices sorted; CSR steps faster
        couple = sp.csr_matrix((couple.ravel(), np.repeat(ops.p2.cell_dofs(), 6, axis=0).ravel(),
                                np.arange(0, couple.size + 1, 6)), shape=ops.E.shape).T
        if self.node_rotation is None:
            S = ops.M + (c2dt2 / 4.0) * (couple @ ops.E)
            self.rotate = sp.bsr_matrix((W, np.arange(len(W)), np.arange(len(W) + 1))).dot
        self.couple = couple.tocsr()
        self.couple.data *= 0.5 * dt
        # the mean of (S_ii - M_ii) / M_ii.  S_ii >= M_ii > 0, but an overflowed
        # S has entries of both signs on its diagonal, whose abs keeps the sum
        # from inf - inf and its warning; the solver refuses such an S
        stiffness = np.mean(abs(S.diagonal()) / ops.M.diagonal()) - 1.0
        # on a cell torus the solver builds the V-cycle only once Jacobi has
        # proved slow and the Bloch build refused, so it is offered at any ratio
        lattice = ops.cell_layout
        offer = lattice is not None or stiffness > _MULTIGRID_ABOVE
        self.solver = linalg.Solver(S, coarse=ops.p1_prolongation if offer else None,
                                    lattice=lattice)

    def step(self, state, tol):
        u_n, eta_n = state.u.coeffs, state.eta.coeffs
        rhs = self.ops.M @ eta_n + self.couple @ u_n
        eta_m = self.solver.solve(rhs, tol=tol, x0=eta_n)
        shift = (0.5 * self.c2 * self.dt) * eta_m
        u_next = self.rotate(u_n - self.ops.E @ shift)
        u_next *= 2.0
        u_next -= u_n
        if self.node_rotation is not None:
            helmholtz._advance_potentials(state.u.space.mesh, u_n, u_next,
                                          self.node_rotation, shift)
        return State(
            Field(state.u.space, u_next),
            Field(state.eta.space, 2.0 * eta_m - eta_n),
            state.time + self.dt,
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
    """Advance one implicit-midpoint step; the elevation solve to relative tol."""
    if not 0 < dt < math.inf:
        raise ParameterError(f"dt must be positive and finite, got {dt}")
    return _stepper(state.u.space.mesh, dt, params).step(state, tol)


# --------------------------------------------------------------------------
# initializers


def geostrophic_init(eta0, params):
    """Balanced state u = (c2/f0) perp(grad eta0); an exact fixed point."""
    if params.f0 == 0:
        raise ParameterError("geostrophic balance requires f0 != 0")
    ops = fem.operators(eta0.space.mesh)
    u = (params.c2 / params.f0) * (ops.P @ (ops.E @ eta0.coeffs))
    return State(Field(ops.v, u), eta0.copy(), 0.0)


def inertial_init(mesh, mode, seed=0):
    """Oscillation initial data: eta = 0 and u either uniform or pure residual."""
    ops = fem.operators(mesh)
    rng = np.random.default_rng(seed)
    if mode == "physical":
        u = ops.constant_field(rng.standard_normal(2))
    elif mode == "spurious":
        raw = Field(ops.v, rng.standard_normal(ops.v.n_dofs))
        u = helmholtz.decompose(raw, tol=1e-14).residual.coeffs
    else:
        raise ParameterError(f"unknown inertial mode {mode!r} (physical or spurious)")
    return State(Field(ops.v, u), Field.zeros(ops.p2), 0.0)


# --------------------------------------------------------------------------
# plane waves and the convergence experiment


def _check_compatible(k, mesh):
    m = mesh.lattice @ k / (2.0 * np.pi)
    if np.max(np.abs(m - np.round(m))) > 1e-9:
        raise ParameterError(
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
        raise ParameterError("plane wave requires a nonzero wave vector")
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


def _l2_tables(mesh):
    """Degree-5 quadrature points (n_f, nq, 2), P2 basis values there
    transposed (6, nq), cell dofs (n_f, 6) and weights 2 |T| w_q (n_f, nq),
    built once per mesh."""
    tables = mesh.cache.get("l2_tables")
    if tables is None:
        quad = fem.quadrature_rule(5)
        X, _, area = fem._face_geometry(mesh)
        lam = np.atleast_2d(quad.points)
        tables = mesh.cache["l2_tables"] = (
            lam @ X,
            fem._p2_values(lam).T,
            fem.P2Space(mesh).cell_dofs(),
            2.0 * area[:, None] * quad.weights,
        )
    return tables


def l2_error_p2(eta, exact_fn):
    """L2 norm of (eta_h - exact) via a degree-5 rule on every element."""
    xq, values, cell_dofs, weights = _l2_tables(eta.space.mesh)
    diff = eta.coeffs[cell_dofs] @ values - exact_fn(xq)
    return math.sqrt(np.vdot(weights, diff * diff))


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
        raise ParameterError(f"unknown ic_mode {ic_mode!r} (collocated or projected)")
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
        raise ParameterError("need at least two refinement levels")
    if any(b <= a for a, b in zip(levels, levels[1:])):
        raise ParameterError("levels must be strictly refining")
    if not steps_factor > 0:
        raise ParameterError("steps_factor must be positive")
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


def solve_rossby(psi0, dt, T, params, fhat=(0.0, 1.0), tol=1e-13):
    """Integrate (L + M f0^2/c2) dpsi/dt = beta D psi by implicit midpoint.

    D is the derivative pairing along the local east direction, obtained by
    rotating the given northward unit vector fhat clockwise a quarter turn.
    The quadratic form psi^T (L + M f0^2/c2) psi is conserved because D is
    antisymmetric on a torus.  Each step solves to relative tol.
    """
    if not (0 < dt < math.inf and 0 < T < math.inf):
        raise ParameterError("dt and T must be positive and finite")
    east = fem._east(fhat)
    ops = fem.operators(psi0.space.mesh)
    mean0 = ops.p2_mean(psi0.coeffs)
    scale = np.linalg.norm(psi0.coeffs)
    if abs(mean0) * math.sqrt(ops.area) > 1e-10 * max(scale, 1e-300):
        raise ParameterError(f"psi0 must have zero integral mean (got {mean0:.3e})")

    # L and D share M's pattern: K, D and K - beta dt D/2 are data on its indices
    M, D = ops.M, fem.assemble_ddx_p2(ops.p2, east)
    for A in (ops.L, D):
        if not (np.array_equal(A.indptr, M.indptr) and np.array_equal(A.indices, M.indices)):
            raise ValueError("L and D must share the sparsity pattern of M")
    K, D = (sp.csr_matrix((data, M.indices, M.indptr), shape=M.shape)
            for data in (ops.L.data + params.lr2_inv * M.data, D.data))

    # (K - beta dt D/2) psi_{n+1} = (K + beta dt D/2) psi_n
    half = 0.5 * params.beta * dt
    A = sp.csr_matrix((K.data - half * D.data, M.indices, M.indptr), shape=M.shape)
    solver = linalg.Solver(A, coarse=ops.p1_prolongation, lattice=ops.cell_layout)
    n_steps = max(1, round(T / dt))
    psis = np.empty((n_steps + 1, ops.p2.n_dofs))
    psis[0] = psi = psi0.coeffs
    invariant = np.empty(n_steps + 1)
    Kpsi = K @ psi
    invariant[0] = float(psi @ Kpsi)
    for s in range(n_steps):
        psi = solver.solve(Kpsi + half * (D @ psi), tol=tol, x0=psi)
        Kpsi = K @ psi
        psis[s + 1] = psi
        invariant[s + 1] = float(psi @ Kpsi)

    times = dt * np.arange(n_steps + 1)
    return RossbyTrajectory(times, psis, invariant)


# --------------------------------------------------------------------------
# checkpoint files


def write_checkpoint(path, state, mesh_path):
    """State snapshot: mesh file reference plus both coefficient vectors."""
    with open(path, "w") as fh:
        fh.write(f"mesh {mesh_path}\ntime {state.time:.17g}\n")
        for name, coeffs in (("u", state.u.coeffs), ("eta", state.eta.coeffs)):
            fh.write(f"{name} {coeffs.size}\n" + _format_rows("{:.17g}\n", coeffs))


def read_checkpoint(path):
    """Inverse of write_checkpoint; returns (mesh, State).

    Layout: "mesh <path>" (relative to the checkpoint's directory), "time <t>",
    "u <count>" and count lines of one coefficient each, then the same for
    eta.  The time and every coefficient are finite numbers.  A malformed
    line raises ``swelab.FormatError`` naming its file, this one or the mesh
    file; a mesh that fails ``validate`` is reported at line 1 of this one.
    """
    with open(path) as fh:
        lines = fh.read().rstrip("\n").split("\n")
    if not lines[0].startswith("mesh "):
        raise FormatError(path, 1, "expected 'mesh <path>'")
    mesh_path = lines[0][5:].strip()
    if not os.path.isabs(mesh_path):
        mesh_path = os.path.join(os.path.dirname(os.path.abspath(path)), mesh_path)
    mesh = read_mesh(mesh_path)
    failed = [f"{c.name} ({c.detail})" if c.detail else c.name
              for c in validate(mesh).checks if not c.passed]
    if failed:
        raise FormatError(path, 1, f"mesh file {mesh_path}: failed checks {', '.join(failed)}")
    if len(lines) < 2 or not lines[1].startswith("time "):
        raise FormatError(path, 2, "expected 'time <t>'")
    t = _read_block([(2, lines[1][5:])], 1, 1, path, "time")[0, 0]

    i = 2
    values = {}
    for name, n_dofs in (("u", 6 * mesh.n_f), ("eta", mesh.n_v + mesh.n_e)):
        if i >= len(lines) or not lines[i].startswith(name + " "):
            raise FormatError(path, i + 1, f"expected '{name} <count>'")
        try:
            count = int(lines[i][len(name) + 1:])
        except ValueError:
            raise FormatError(path, i + 1, f"bad {name} count")
        if count != n_dofs:
            raise FormatError(path, i + 1, f"{name} has {count} coefficients, mesh needs {n_dofs}")
        # each coefficient line is converted whole, as one field
        rows = list(enumerate(lines[i + 1:i + 1 + count], start=i + 2))
        values[name] = _read_block(rows, count, 1, path, name).ravel()
        i += 1 + count
    # the operators are assembled only for a checkpoint that parsed completely
    ops = fem.operators(mesh)
    return mesh, State(Field(ops.v, values["u"]), Field(ops.p2, values["eta"]), float(t))
