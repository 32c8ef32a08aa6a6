"""Exact dispersion analysis on the equilateral lattice.

A hexagonal patch of six unit-edge equilateral triangles carries 19
quadratic nodes falling into 4 translation-equivalence classes (vertices
plus three edge-midpoint orientations).  A Bloch phase matrix S reduces
the 19x19 patch operators to 4x4 matrices whose eigenvalues give the
discrete dispersion relation: inertia-gravity branches from the mass and
stiffness reductions, Rossby branches from the directional-derivative
reductions.  Closed-form expressions for all reduced matrices are built
in as an independent oracle for the assembled ones.

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

from . import fem, linalg
from .mesh import reciprocal_wavevector

__all__ = [
    "ReferenceHexagon",
    "BlochMatrices",
    "DispersionResult",
    "build_reference_hexagon",
    "bloch_matrix_S",
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

# unit-cell basis of the equilateral lattice (rows)
_CELL = np.array([[1.0, 0.0], [0.5, 0.5 * _S3]])

# residue of a node position in fractional cell coordinates -> class, in the
# order of the closed-form 4x4 blocks: 0 x-edge midpoints, 1 oblique and
# 2 anti-oblique midpoints, 3 vertices
_RESIDUE_CLASS = {(1, 0): 0, (0, 1): 1, (1, 1): 2, (0, 0): 3}

# zone points per batched evaluation; bounds the temporaries of a sweep
_BLOCK = 64


@dataclass(frozen=True)
class ReferenceHexagon:
    nodes: np.ndarray      # (19, 2)
    triangles: np.ndarray  # (6, 6) local P2 dof lists
    classes: np.ndarray    # (19,) class index


def _classify(points):
    frac = np.asarray(points, dtype=float) @ np.linalg.inv(_CELL)
    doubled = np.rint(2.0 * frac).astype(int)
    if np.max(np.abs(2.0 * frac - doubled)) > 1e-9:
        raise ValueError("node does not sit on a half-lattice point")
    res = doubled % 2
    return np.array([_RESIDUE_CLASS[(p, q)] for p, q in res])


@lru_cache(maxsize=1)
def build_reference_hexagon():
    """Unit-edge hexagon of 6 triangles with 19 quadratic nodes."""
    rim = np.array(
        [
            [1.0, 0.0],
            [0.5, 0.5 * _S3],
            [-0.5, 0.5 * _S3],
            [-1.0, 0.0],
            [-0.5, -0.5 * _S3],
            [0.5, -0.5 * _S3],
        ]
    )
    nodes = np.zeros((19, 2))
    nodes[1:7] = rim
    nodes[7:13] = 0.5 * rim                      # spoke midpoints
    nodes[13:19] = 0.5 * (rim + np.roll(rim, -1, axis=0))  # rim midpoints
    tris = np.array(
        [
            [0, 1 + m, 1 + (m + 1) % 6, 13 + m, 7 + (m + 1) % 6, 7 + m]
            for m in range(6)
        ]
    )
    return ReferenceHexagon(nodes, tris, _classify(nodes))


@lru_cache(maxsize=4)
def _patch_matrices(quad_degree=4):
    """19x19 mass, stiffness and two derivative matrices on the hexagon, stacked."""
    hexa = build_reference_hexagon()
    quad = fem.quadrature_rule(quad_degree)
    n = len(hexa.nodes)
    out = np.zeros((4, n, n))
    for dofs in hexa.triangles:
        corners = hexa.nodes[dofs[:3]]
        me, le = fem.p2_element_matrices(corners, quad)
        d1e = fem.p2_element_ddx(corners, (1.0, 0.0), quad)
        d2e = fem.p2_element_ddx(corners, (0.0, 1.0), quad)
        ix = np.ix_(dofs, dofs)
        for X, xe in zip(out, (me, le, d1e, d2e)):
            X[ix] += xe
    return out


def bloch_matrix_S(kdx):
    """19x4 phase matrix: row n carries exp(i kdx . xi_n) in its class column.

    For an (N, 2) array of wave vectors the result is the (N, 19, 4) stack.
    """
    hexa = build_reference_hexagon()
    kdx = np.asarray(kdx, dtype=float)
    S = np.zeros(kdx.shape[:-1] + (19, 4), dtype=complex)
    S[..., np.arange(19), hexa.classes] = np.exp(1j * (kdx @ hexa.nodes.T))
    return S


@dataclass(frozen=True)
class BlochMatrices:
    kdx: tuple
    Mr: np.ndarray
    Lr: np.ndarray
    D1r: np.ndarray
    D2r: np.ndarray


def _reductions(kdx, quad_degree=4):
    """(Mr, Lr, D1r, D2r) = S^H X S, each (..., 4, 4) for kdx of shape (..., 2)."""
    S = bloch_matrix_S(kdx)[..., None, :, :]
    R = S.conj().swapaxes(-1, -2) @ _patch_matrices(quad_degree) @ S
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


def _require_zone(kdx):
    if not in_brillouin_zone(kdx, tol=1e-9):
        raise ValueError(f"kdx {tuple(kdx)} lies outside the first Brillouin zone")


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


def _east(fhat):
    """Unit local east: the clockwise quarter-turn of the direction fhat."""
    fhat = np.asarray(fhat, dtype=float)
    nf = np.linalg.norm(fhat)
    if nf == 0:
        raise ValueError("fhat must be a nonzero direction")
    return fhat[1] / nf, -fhat[0] / nf


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
    _require_zone(kdx)
    pts = np.asarray(kdx, dtype=float).reshape(1, 2)
    return _results(pts, *_gravity(pts, params, dx))[0]


def rossby_branches(kdx, params, fhat=(0.0, 1.0), dx=1.0):
    """Four Rossby frequencies of i w (Lr/dx^2 + Mr/L_R^2) v = (beta/dx) Dr v.

    Dr pairs each basis function with the derivative along local east, the
    clockwise quarter-turn of fhat (the direction of increasing f).
    """
    _require_zone(kdx)
    pts = np.asarray(kdx, dtype=float).reshape(1, 2)
    return _results(pts, *_rossby(pts, params, _east(fhat), dx))[0]


def sweep_brillouin(n_grid, kind, params, fhat=None, dx=1.0):
    """Branch frequencies on a cell-centred grid clipped to the first zone."""
    if n_grid < 8:
        raise ValueError("n_grid must be at least 8")
    if kind not in ("gravity", "rossby"):
        raise ValueError(f"unknown sweep kind {kind!r}")
    r = 4.0 * math.pi / 3.0
    centers = r * (-1.0 + (2.0 * np.arange(n_grid) + 1.0) / n_grid)
    k, l = np.meshgrid(centers, centers)
    pts = np.column_stack([k.ravel(), l.ravel()])
    pts = pts[in_brillouin_zone(pts)]
    if kind == "gravity":
        return _results(pts, *_in_blocks(lambda b: _gravity(b, params, dx), pts))
    east = _east(fhat or (0.0, 1.0))
    return _results(pts, *_in_blocks(lambda b: _rossby(b, params, east, dx), pts))


# --------------------------------------------------------------------------
# lattice-compatible modes for cross-validation against time stepping


def _mesh_dx(mesh):
    X = mesh.corner_coords()
    return float(np.linalg.norm(X[0, 1] - X[0, 0]))


def lattice_dof_classes(mesh, dx=None):
    """Translation class of every P2 dof on the torus."""
    dx = dx or _mesh_dx(mesh)
    return _classify(fem.operators(mesh).p2.dof_points() / dx)


def lattice_gravity_mode(mesh, m1, m2, params, branch=0):
    """Exact Bloch eigenmode (omega, u_hat, eta_hat) on an equilateral torus.

    eta_hat carries the reduced eigenvector through the per-class phases;
    u_hat solves the velocity equation of the time-harmonic system, which is
    pointwise 2x2 because gradients of quadratics embed exactly.
    """
    ops = fem.operators(mesh)
    dx = _mesh_dx(mesh)
    k = reciprocal_wavevector(mesh, m1, m2)
    kdx = k * dx
    disp = gravity_branches(kdx, params, dx)
    omega = float(disp.omegas[branch])
    vtil = disp.vectors[:, branch]

    pts = ops.p2.dof_points()
    eta_hat = np.exp(1j * (pts @ k)) * vtil[lattice_dof_classes(mesh, dx)]

    grad = (ops.E @ eta_hat).reshape(-1, 2)
    a, b = -1j * omega, params.f0
    denom = params.f0 ** 2 - omega ** 2
    if abs(denom) < 1e-14 * max(omega ** 2, 1.0):
        raise ValueError("inertial branch: velocity amplitude is not determined")
    rot = np.column_stack([grad[:, 1], -grad[:, 0]])
    u_hat = (-params.c2 / denom) * (a * grad + b * rot)
    return omega, u_hat.reshape(-1), eta_hat


def lattice_rossby_mode(mesh, m1, m2, params, fhat=(0.0, 1.0), branch=0):
    """Bloch Rossby mode (omega, psi_hat) on an equilateral torus."""
    ops = fem.operators(mesh)
    dx = _mesh_dx(mesh)
    k = reciprocal_wavevector(mesh, m1, m2)
    kdx = k * dx
    disp = rossby_branches(kdx, params, fhat, dx)
    omega = float(disp.omegas[branch])
    vtil = disp.vectors[:, branch]
    pts = ops.p2.dof_points()
    psi_hat = np.exp(1j * (pts @ k)) * vtil[lattice_dof_classes(mesh, dx)]
    return omega, psi_hat
