"""Exact dispersion analysis on the equilateral lattice.

The 1x1 equilateral torus (``mesh._equilateral_cells``) is one periodic
cell: two unit-edge triangles, one up and one down, and 4 quadratic dofs,
one vertex and three edge midpoints, which are the 4 translation classes of
the lattice's nodes.  ``lattice_dof_classes`` reads them from
``fem._cell_layout``, in any face order, on this cell and on the tori of the
lattice modes alike.  A Bloch phase reduces the lattice operators to 4x4
matrices whose eigenvalues give the discrete dispersion relation:
inertia-gravity branches from the mass and stiffness reductions, Rossby
branches from the directional-derivative reductions.  Closed-form
expressions for all reduced matrices are built in as an independent oracle
for the assembled ones.

Entry (a, b) of a reduction sums X_f[n, m] exp(i kdx . (xi_m - xi_n)) over
the faces f and their node pairs with n in class a and m in class b, so it
depends on the faces only through the displacements xi_m - xi_n, which take
19 distinct values inside a triangle.  The closed forms are normalized as
S^H X S on the hexagonal patch of six triangles around a vertex, which holds
three translates of each face of the cell, so the reductions are 3 times the
sums over the cell.  One real table C, built once per quadrature degree from
the element blocks of the cell's two faces (the batched kernels that
assemble the torus operators), holds for each d the entries summed per
(matrix, class pair), times 3.  The reductions at a stack of wave vectors
are cos(kdx . d^T) @ C + i sin(kdx . d^T) @ C (Le Roux, Rostand & Pouliot,
SIAM J. Sci. Comput. 29, 2007, reduce a patch the same way).

Both branch families are generalized Hermitian eigenproblems, Lr v = lam Mr v
(gravity) and (i T) v = omega K v (Rossby) with Mr and K positive definite.
Reductions, closed forms and eigensolves take stacks of wave vectors; a sweep
solves blocks of zone points through one batched Cholesky reduction and
numpy.linalg.eigh, so the spectra are real by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import ParameterError, fem, linalg
from .mesh import _equilateral_cells, reciprocal_wavevector

__all__ = [
    "BlochMatrices",
    "DispersionResult",
    "reduced_matrices",
    "gravity_branches",
    "rossby_branches",
    "in_brillouin_zone",
    "random_zone_points",
    "sweep_brillouin",
    "oracle_report",
    "TEMPLATES",
    "TEMPLATE_NAMES",
    "lattice_dof_classes",
    "lattice_gravity_mode",
    "lattice_rossby_mode",
]

_S3 = math.sqrt(3.0)

# zone points per batched evaluation; bounds the temporaries of a sweep.  On
# the dispersion benchmark (2-core Xeon, one BLAS thread), blocks of 64 peak
# at 61.3-61.5 MB.  One block of all 672 points of the ngrid-32 sweeps peaked
# at 63.6-63.8 MB and blocks of 256 at 62.4-62.5 MB; either saved about
# 4.5 ms of the 28 ms pair of sweeps.
_BLOCK = 64


@dataclass(frozen=True)
class BlochMatrices:
    kdx: tuple
    Mr: np.ndarray
    Lr: np.ndarray
    D1r: np.ndarray
    D2r: np.ndarray


@lru_cache(maxsize=4)
def _displacement_table(quad_degree=4):
    """(d, C): node displacements d (19, 2) and the real table C (19, 64).

    Row j of C, read as (4, 4, 4), holds in column (x, class_n, class_m)
    3 times the sum of the element-block entries X[x][n, m] (mass, stiffness,
    d/dx, d/dy) of the one cell's two faces whose displacement xi_m - xi_n is
    d[j]; the 4 dofs of the cell take their classes from lattice_dof_classes.
    Nodes sit at exact integer keys in half-lattice units from the corner
    shifts s (the cell's one vertex is the origin): 2 s at a corner and
    s_a + s_b at the midpoint of the side from corner a to corner b.  Pairs
    are grouped by the difference of their keys, and d = key @ lattice / 2.
    """
    cell = _equilateral_cells(1, 1, 1.0)
    quad = fem.quadrature_rule(quad_degree)
    Jinv, area = fem._geometry(cell.corner_coords())
    blocks = 3.0 * np.stack([
        fem._p2_mass_blocks(area, quad),
        fem._p2_stiffness_blocks(Jinv, area, quad),
        fem._p2_ddx_blocks(Jinv, area, quad, np.array([1.0, 0.0])),
        fem._p2_ddx_blocks(Jinv, area, quad, np.array([0.0, 1.0])),
    ], axis=1)  # (face, x, n, m)
    s = cell.shifts
    half = np.concatenate([2 * s, s[:, [1, 2, 0]] + s[:, [2, 0, 1]]], axis=1)
    keys = (half[:, None, :] - half[:, :, None]).reshape(-1, 2)
    _, first, row = np.unique(keys, axis=0, return_index=True, return_inverse=True)
    classes = lattice_dof_classes(cell)[fem.P2Space(cell).cell_dofs()]
    C = np.zeros((len(first), 4, 4, 4))
    np.add.at(C, (row.reshape(2, 1, 6, 6), np.arange(4)[:, None, None],
                  classes[:, None, :, None], classes[:, None, None, :]), blocks)
    return 0.5 * keys[first] @ cell.lattice, C.reshape(len(first), 64)


def _reductions(kdx, quad_degree=4):
    """(Mr, Lr, D1r, D2r) = S^H X S, each (..., 4, 4) for kdx of shape (..., 2),
    summed over the displacement table."""
    d, C = _displacement_table(quad_degree)
    phase = np.asarray(kdx, dtype=float) @ d.T
    R = (np.cos(phase) @ C + 1j * (np.sin(phase) @ C)).reshape(phase.shape[:-1] + (4, 4, 4))
    return tuple(np.moveaxis(R, -3, 0))


def reduced_matrices(kdx, quad_degree=4):
    """Assembled 4x4 reductions S^H X S."""
    return BlochMatrices((float(kdx[0]), float(kdx[1])), *_reductions(kdx, quad_degree))


# --------------------------------------------------------------------------
# closed forms, each evaluated at arrays k, l of any common shape


def _mr_closed(k, l):
    c = np.cos
    q = _S3 / 4.0 * l
    X = np.zeros(np.shape(k) + (4, 4))
    X[..., 0, 0] = X[..., 1, 1] = X[..., 2, 2] = 4.0 * _S3 / 15.0
    X[..., 0, 1] = (2.0 * _S3 / 15.0) * c(-k / 4.0 + q)
    X[..., 0, 2] = (2.0 * _S3 / 15.0) * c(k / 4.0 + q)
    X[..., 1, 2] = (2.0 * _S3 / 15.0) * c(k / 2.0)
    X[..., 0, 3] = -(_S3 / 30.0) * c(2.0 * q)
    X[..., 1, 3] = -(_S3 / 30.0) * c(3.0 * k / 4.0 - q)
    X[..., 2, 3] = -(_S3 / 30.0) * c(3.0 * k / 4.0 + q)
    X[..., 3, 3] = 3.0 * _S3 / 20.0 - (_S3 / 60.0) * (
        c(k) + c(k / 2.0 + 2.0 * q) + c(-k / 2.0 + 2.0 * q)
    )
    return X + np.swapaxes(np.triu(X, 1), -1, -2)


def _lr_closed(k, l):
    c = np.cos
    q = _S3 / 4.0 * l
    X = np.zeros(np.shape(k) + (4, 4))
    X[..., 0, 0] = X[..., 1, 1] = X[..., 2, 2] = 8.0 * _S3
    X[..., 0, 1] = -(8.0 * _S3 / 3.0) * c(-k / 4.0 + q)
    X[..., 0, 2] = -(8.0 * _S3 / 3.0) * c(k / 4.0 + q)
    X[..., 1, 2] = -(8.0 * _S3 / 3.0) * c(k / 2.0)
    X[..., 0, 3] = -(8.0 * _S3 / 3.0) * c(k / 2.0)
    X[..., 1, 3] = -(8.0 * _S3 / 3.0) * c(k / 4.0 + q)
    X[..., 2, 3] = -(8.0 * _S3 / 3.0) * c(-k / 4.0 + q)
    X[..., 3, 3] = 6.0 * _S3 + (2.0 * _S3 / 3.0) * (
        c(k) + c(-k / 2.0 + 2.0 * q) + c(k / 2.0 + 2.0 * q)
    )
    return X + np.swapaxes(np.triu(X, 1), -1, -2)


def _x1_closed(k, l):
    s = np.sin
    q = _S3 / 4.0 * l
    X = np.zeros(np.shape(k) + (4, 4))
    X[..., 0, 1] = -(2.0 * _S3 / 5.0) * s(-k / 4.0 + q)
    X[..., 0, 2] = (2.0 * _S3 / 5.0) * s(k / 4.0 + q)
    X[..., 1, 2] = (4.0 * _S3 / 5.0) * s(k / 2.0)
    X[..., 0, 3] = (3.0 * _S3 / 5.0) * s(k / 2.0)
    X[..., 1, 3] = -(_S3 / 10.0) * s(3.0 * k / 4.0 - q) + (3.0 * _S3 / 10.0) * s(k / 4.0 + q)
    X[..., 2, 3] = -(3.0 * _S3 / 10.0) * s(-k / 4.0 + q) - (_S3 / 10.0) * s(3.0 * k / 4.0 + q)
    X[..., 3, 3] = (
        -(_S3 / 5.0) * s(k)
        - (_S3 / 10.0) * s(k / 2.0 + 2.0 * q)
        - (_S3 / 10.0) * s(k / 2.0 - 2.0 * q)
    )
    return X + np.swapaxes(np.triu(X, 1), -1, -2)


def _x2_closed(k, l):
    s = np.sin
    q = _S3 / 4.0 * l
    X = np.zeros(np.shape(k) + (4, 4))
    X[..., 0, 1] = (6.0 / 5.0) * s(-k / 4.0 + q)
    X[..., 0, 2] = (6.0 / 5.0) * s(k / 4.0 + q)
    X[..., 1, 2] = 0.0
    X[..., 0, 3] = -(1.0 / 5.0) * s(2.0 * q)
    X[..., 1, 3] = -(1.0 / 10.0) * s(-3.0 * k / 4.0 + q) + (9.0 / 10.0) * s(k / 4.0 + q)
    X[..., 2, 3] = -(1.0 / 10.0) * s(3.0 * k / 4.0 + q) + (9.0 / 10.0) * s(-k / 4.0 + q)
    X[..., 3, 3] = (
        -(3.0 / 10.0) * s(k / 2.0 + 2.0 * q)
        - (3.0 / 20.0) * s(-k / 2.0 + 2.0 * q)
        + (3.0 / 20.0) * s(k / 2.0 - 2.0 * q)
    )
    return X + np.swapaxes(np.triu(X, 1), -1, -2)


def _closed_forms(kdx):
    """Closed-form (Mr, Lr, D1r, D2r), each (..., 4, 4) for kdx of shape (..., 2)."""
    kdx = np.asarray(kdx, dtype=float)
    k, l = kdx[..., 0], kdx[..., 1]
    return (
        _mr_closed(k, l).astype(complex),
        _lr_closed(k, l).astype(complex),
        1j * _x1_closed(k, l),
        1j * _x2_closed(k, l),
    )


def _in_blocks(fn, pts):
    """fn over pts in blocks of _BLOCK rows; each output array concatenated."""
    parts = [fn(pts[i:i + _BLOCK]) for i in range(0, len(pts), _BLOCK)]
    return [np.concatenate(field) for field in zip(*parts)]


def oracle_report(n_samples=100, seed=0, quad_degree=4):
    """Max entrywise discrepancy between assembly and closed forms per block.

    Returns {block: (max discrepancy, kdx where it occurred)}.
    """
    if n_samples < 1:
        raise ParameterError("n_samples must be at least 1")
    pts = random_zone_points(n_samples, seed)

    def discrepancies(block):
        pairs = zip(_reductions(block, quad_degree), _closed_forms(block))
        return [np.abs(got - want).max(axis=(-2, -1)) for got, want in pairs]

    report = {}
    for name, err in zip(("Mr", "Lr", "D1r", "D2r"), _in_blocks(discrepancies, pts)):
        i = int(np.argmax(err))
        report[name] = (float(err[i]), (float(pts[i, 0]), float(pts[i, 1])))
    return report


# --------------------------------------------------------------------------
# Brillouin zone

_ZONE_BOUND = 2.0 * math.pi / _S3
_ZONE_NORMALS = np.array(
    [
        [math.cos((n + 0.5) * math.pi / 3.0), math.sin((n + 0.5) * math.pi / 3.0)]
        for n in range(3)
    ]
)


def in_brillouin_zone(kdx, tol=1e-12):
    """Inside the hexagonal first zone (six half-plane inequalities).

    For an (N, 2) array of wave vectors, one flag per row.
    """
    kdx = np.asarray(kdx, dtype=float)
    inside = np.all(np.abs(kdx @ _ZONE_NORMALS.T) <= _ZONE_BOUND + tol, axis=-1)
    return inside if inside.ndim else bool(inside)


def random_zone_points(n, seed=0):
    """Uniform samples from the first Brillouin zone by rejection."""
    rng = np.random.default_rng(seed)
    r = 4.0 * math.pi / 3.0  # corner radius bounds the zone
    out = np.empty((0, 2))
    while len(out) < n:
        cand = rng.uniform(-r, r, size=(4 * n, 2))
        out = np.concatenate([out, cand[in_brillouin_zone(cand)][: n - len(out)]])
    return out


# --------------------------------------------------------------------------
# dispersion branches

TEMPLATES = 0.5 * np.array(
    [
        [1.0, 1.0, 1.0, 1.0],
        [-1.0, -1.0, 1.0, 1.0],
        [1.0, -1.0, -1.0, 1.0],
        [-1.0, 1.0, -1.0, 1.0],
    ]
)
TEMPLATE_NAMES = ("fundamental", "higher1", "higher2", "higher3")


@dataclass
class DispersionResult:
    kdx: tuple
    omegas: np.ndarray        # (4,) ascending
    vectors: np.ndarray       # (4, 4) columns
    labels: tuple = None      # Rossby only
    ambiguous: tuple = None   # Rossby only


def _require_dx(dx):
    # a negative dx flips the sign of every Rossby frequency
    if not 0.0 < dx < math.inf:
        raise ParameterError(f"dx must be positive and finite, got {dx}")


def _require_zone(kdx):
    if not in_brillouin_zone(kdx, tol=1e-9):
        raise ParameterError(f"kdx {tuple(kdx)} lies outside the first Brillouin zone")


def _eigh_pencil(A, B):
    """Eigenpairs of the Hermitian pencils A v = w B v with B positive definite.

    A and B are (N, 4, 4) stacks.  The eigenvalues ascend; each eigenvector
    has unit norm, with its first significant entry real and positive.
    """
    try:
        C = np.linalg.cholesky(B)
    except np.linalg.LinAlgError as exc:
        raise linalg.SolverError(f"reduced matrix is not positive definite: {exc}") from None
    Cinv = np.linalg.inv(C)
    CinvH = Cinv.conj().swapaxes(-1, -2)
    w, y = np.linalg.eigh(Cinv @ A @ CinvH)
    v = CinvH @ y
    v /= np.linalg.norm(v, axis=-2, keepdims=True)
    mag = np.abs(v)
    first = np.argmax(mag > 1e-12 * mag.max(axis=-2, keepdims=True), axis=-2)
    lead = np.take_along_axis(v, first[..., None, :], axis=-2)
    return w, v * (lead.conj() / np.abs(lead))


def _gravity(kdx, params, dx):
    """Frequencies omega^2 = f0^2 + (c2/dx^2) lam and vectors of Lr v = lam Mr v."""
    Mr, Lr, _, _ = _reductions(kdx)
    lam, vecs = _eigh_pencil(Lr, Mr)
    return np.sqrt(params.f0 ** 2 + params.c2 / dx ** 2 * np.clip(lam, 0.0, None)), vecs


def _classify_vectors(omegas, vecs):
    """Best template of each unit column of vecs (N, 4, 4), and whether the
    runner-up scores within 1 % of it or the column's eigenvalue (omegas
    ascend) is within 1e-8 of the row's largest |omega| of another one."""
    scores = np.abs(TEMPLATES @ vecs.conj())  # (N, template, column)
    order = np.argsort(scores, axis=-2)
    ranked = np.take_along_axis(scores, order, axis=-2)
    top, second = ranked[..., -1, :], ranked[..., -2, :]
    close = np.diff(omegas, axis=-1) <= 1e-8 * np.abs(omegas).max(axis=-1, keepdims=True)
    ambiguous = top - second < 0.01 * top
    ambiguous[..., 1:] |= close
    ambiguous[..., :-1] |= close
    return order[..., -1, :], ambiguous


def _rossby(kdx, params, east, dx):
    """Frequencies, vectors, template indices and ambiguity flags of
    (i T) v = omega K v, K = Lr/dx^2 + Mr/L_R^2, T = (beta/dx) Dr_east."""
    Mr, Lr, D1r, D2r = _reductions(kdx)
    K = Lr / dx ** 2 + params.lr2_inv * Mr
    T = (params.beta / dx) * (east[0] * D1r + east[1] * D2r)
    omegas, vecs = _eigh_pencil(1j * T, K)
    # where T vanishes (kdx = 0) every branch is at rest
    dscale = np.maximum(np.abs(D1r).max(axis=(-2, -1)), np.abs(D2r).max(axis=(-2, -1)))
    at_rest = np.abs(T).max(axis=(-2, -1)) <= (
        1e-13 * abs(params.beta) / dx * np.maximum(dscale, 1.0))
    omegas[at_rest] = 0.0
    vecs[at_rest] = np.eye(4)
    return (omegas, vecs, *_classify_vectors(omegas, vecs))


def _results(kdx, omegas, vecs, labels=None, flags=None):
    """One DispersionResult per row of the batched branch arrays."""
    rows = zip(map(tuple, kdx), omegas, vecs)
    if labels is None:
        return [DispersionResult(*row) for row in rows]
    # an object array hands out the TEMPLATE_NAMES strings themselves, not copies
    names = np.array(TEMPLATE_NAMES, dtype=object)[labels].tolist()
    return [DispersionResult(*row, tuple(n), tuple(f))
            for row, n, f in zip(rows, names, flags.tolist())]


def gravity_branches(kdx, params, dx=1.0):
    """Four inertia-gravity frequencies omega^2 = f0^2 + (c2/dx^2) lam."""
    _require_dx(dx)
    _require_zone(kdx)
    pts = np.asarray(kdx, dtype=float).reshape(1, 2)
    return _results(pts, *_gravity(pts, params, dx))[0]


def rossby_branches(kdx, params, fhat=(0.0, 1.0), dx=1.0):
    """Four Rossby frequencies of i w (Lr/dx^2 + Mr/L_R^2) v = (beta/dx) Dr v.

    Dr pairs each basis function with the derivative along local east, the
    clockwise quarter-turn of fhat (the direction of increasing f).
    """
    _require_dx(dx)
    _require_zone(kdx)
    pts = np.asarray(kdx, dtype=float).reshape(1, 2)
    return _results(pts, *_rossby(pts, params, fem._east(fhat), dx))[0]


def sweep_brillouin(n_grid, kind, params, fhat=(0.0, 1.0), dx=1.0):
    """Branch frequencies on a cell-centred grid clipped to the first zone."""
    _require_dx(dx)
    if n_grid < 8:
        raise ParameterError("n_grid must be at least 8")
    if kind not in ("gravity", "rossby"):
        raise ParameterError(f"unknown sweep kind {kind!r}")
    r = 4.0 * math.pi / 3.0
    centers = r * (-1.0 + (2.0 * np.arange(n_grid) + 1.0) / n_grid)
    k, l = np.meshgrid(centers, centers)
    pts = np.column_stack([k.ravel(), l.ravel()])
    pts = pts[in_brillouin_zone(pts)]
    if kind == "gravity":
        return _results(pts, *_in_blocks(lambda b: _gravity(b, params, dx), pts))
    east = fem._east(fhat)
    return _results(pts, *_in_blocks(lambda b: _rossby(b, params, east, dx), pts))


# --------------------------------------------------------------------------
# lattice-compatible modes for cross-validation against time stepping


def _equilateral_classes(mesh):
    """dx and lattice_dof_classes of an equilateral torus."""
    layout = fem._cell_layout(fem.P2Space(mesh))
    if layout is not None:
        n1, n2, perm = layout
        dx = float(np.linalg.norm(mesh.lattice[0]) / n1)
        rows = dx * np.array([[n1, 0.0], [0.5 * n2, 0.5 * _S3 * n2]])
        sides = np.linalg.norm(np.diff(mesh.corner_coords()[:, [0, 1, 2, 0]], axis=1), axis=-1)
        if max(np.abs(mesh.lattice - rows).max(), np.abs(sides - dx).max()) <= 1e-9 * dx:
            return dx, np.repeat([3, 0, 1, 2], n1 * n2)[np.argsort(perm)]
    raise ParameterError("mesh is not a torus of translated equilateral cells")


def lattice_dof_classes(mesh):
    """Translation class of every P2 dof on an equilateral torus, in the order
    of the closed-form blocks (0 x-edge, 1 oblique and 2 anti-oblique
    midpoints, 3 vertices): ``fem._cell_layout``'s vertex, first edge, second
    edge and diagonal are 3, 0, 1 and 2, once the lattice rows are n1 dx (1, 0)
    and n2 dx (1/2, sqrt(3)/2) and every face side is dx.  ParameterError on
    other tori: right, jittered, rotated or split along the long diagonal."""
    return _equilateral_classes(mesh)[1]


def _lattice_phases(mesh, m1, m2):
    """dx, the wave vector k of torus mode (m1, m2), the P2 dof classes and
    the phases exp(i k . x) at the dofs."""
    dx, classes = _equilateral_classes(mesh)
    k = reciprocal_wavevector(mesh, m1, m2)
    return dx, k, classes, np.exp(1j * (fem.P2Space(mesh).dof_points() @ k))


def lattice_gravity_mode(mesh, m1, m2, params, branch=0):
    """Exact Bloch eigenmode (omega, u_hat, eta_hat) on an equilateral torus.

    eta_hat carries the reduced eigenvector through the per-class phases;
    u_hat solves the velocity equation of the time-harmonic system, which is
    pointwise 2x2 because gradients of quadratics embed exactly.
    """
    dx, k, classes, phases = _lattice_phases(mesh, m1, m2)
    disp = gravity_branches(k * dx, params, dx)
    omega = float(disp.omegas[branch])
    eta_hat = phases * disp.vectors[classes, branch]

    grad = (fem.operators(mesh).E @ eta_hat).reshape(-1, 2)
    a, b = -1j * omega, params.f0
    denom = params.f0 ** 2 - omega ** 2
    if abs(denom) < 1e-14 * max(omega ** 2, 1.0):
        raise ParameterError("inertial branch: velocity amplitude is not determined")
    rot = np.column_stack([grad[:, 1], -grad[:, 0]])
    u_hat = (-params.c2 / denom) * (a * grad + b * rot)
    return omega, u_hat.reshape(-1), eta_hat


def lattice_rossby_mode(mesh, m1, m2, params, fhat=(0.0, 1.0), branch=0):
    """Bloch Rossby mode (omega, psi_hat) on an equilateral torus."""
    dx, k, classes, phases = _lattice_phases(mesh, m1, m2)
    disp = rossby_branches(k * dx, params, fhat, dx)
    return float(disp.omegas[branch]), phases * disp.vectors[classes, branch]
