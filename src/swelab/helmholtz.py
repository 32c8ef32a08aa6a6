"""Discrete Helmholtz decomposition of the velocity space.

Every velocity field splits into a constant mean part, a gradient of a
mean-free quadratic potential, a rotated gradient of a mean-free quadratic
streamfunction, and a residual that is mass-orthogonal to all three.  The
two potentials decouple because rotated gradients of quadratics are exactly
mass-orthogonal to gradients of quadratics on a torus.  ``decompose``
computes the split; the energies and the projection are read from it.

Each mesh keeps one slot, ``mesh.cache["potentials"]``: a copy of the last
velocity coefficients decomposed together with their potentials.  An
f-plane step from exactly that velocity advances the slot by the step's own
node rotation (``_advance_potentials``), so that decomposing the next state
starts both solves from its potentials instead of from zero.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import fem
from .fem import Field

__all__ = [
    "HelmholtzComponents",
    "decompose",
    "project_hp2",
    "component_energies",
]


@dataclass
class HelmholtzComponents:
    mean: np.ndarray       # (2,) constant vector part
    phi: Field             # divergent potential, integral mean zero
    psi: Field             # rotational streamfunction, integral mean zero
    residual: Field        # velocity-space remainder


def _slot_potentials(mesh, coeffs):
    """(phi, psi) from the mesh's potentials slot if it holds exactly these
    velocity coefficients, else None."""
    slot = mesh.cache.get("potentials")
    if slot is not None and np.array_equal(slot[0], coeffs):
        return slot[1:]
    return None


def _store_potentials(mesh, coeffs, phi, psi):
    """Fill the potentials slot; coeffs is copied, as its owner may change it."""
    mesh.cache["potentials"] = (coeffs.copy(), phi, psi)


def _advance_potentials(mesh, u_n, u_next, R, shift):
    """Move the slot from u_n to u_next = 2 R (u_n - E shift) - u_n, R a 2 x 2
    rotation of every velocity node, if it holds u_n.  As P P = -I, R maps
    E phi + P E psi to E phi' + P E psi' with (phi', psi') = R (phi, psi).  An
    overflowed prediction, which would fail the solver's check, is not stored."""
    held = _slot_potentials(mesh, u_n)
    if held is None:
        return
    phi, psi = held
    pair = (2.0 * R) @ np.stack((phi - shift, psi))
    pair[0] -= phi
    pair[1] -= psi
    if np.isfinite(pair).all():
        _store_potentials(mesh, u_next, *pair)


def decompose(u, tol=1e-12):
    """Split a velocity field u into mean + grad(phi) + perp(grad(psi)) + residual.

    The potentials have integral mean zero.  When the mesh's potentials slot
    holds exactly u, its potentials are the initial guesses of the two
    solves; each solve still meets tol on its true residual, so a stale or
    inaccurate slot costs iterations only.  The slot then holds u and the
    potentials returned.
    """
    mesh = u.space.mesh
    ops = fem.operators(mesh)
    mvu = ops.Mv @ u.coeffs

    # testing the constant unit fields against u sums the x and y entries of Mv u
    mean = mvu.reshape(-1, 2).sum(axis=0) / ops.area

    # both potential solves share the singular stiffness operator: testing
    # grad(phi) (resp. perp grad(psi)) against u reduces to L by exactness;
    # P^T = -P, so (P E)^T Mv u = -E^T P Mv u
    phi0, psi0 = _slot_potentials(mesh, u.coeffs) or (None, None)
    phi = ops.L_solver.solve(ops.Et @ mvu, tol=tol, x0=phi0)
    psi = ops.L_solver.solve(-(ops.Et @ (ops.P @ mvu)), tol=tol, x0=psi0)

    # the solver returns coefficient-mean-zero vectors; shift to integral mean zero
    phi -= ops.p2_mean(phi)
    psi -= ops.p2_mean(psi)
    _store_potentials(mesh, u.coeffs, phi, psi)

    resid = (u.coeffs - ops.E @ phi - ops.P @ (ops.E @ psi)).reshape(-1, 2) - mean
    return HelmholtzComponents(mean, Field(ops.p2, phi), Field(ops.p2, psi),
                               Field(u.space, resid.reshape(-1)))


def project_hp2(u, tol=1e-12):
    """Mass projection of u onto mean + gradients + rotated gradients: u minus
    its residual."""
    return Field(u.space, u.coeffs - decompose(u, tol).residual.coeffs)


def component_energies(u, c2=1.0, tol=1e-12):
    """Kinetic energy of each component of ``decompose(u, tol)``; they sum to
    the total by orthogonality.  c2 is not read.

    E^T Mv E = L and P^T Mv P = Mv, so the potentials' energies are
    1/2 phi^T L phi and 1/2 psi^T L psi.
    """
    ops = fem.operators(u.space.mesh)
    parts = decompose(u, tol)
    phi, psi, resid = parts.phi.coeffs, parts.psi.coeffs, parts.residual.coeffs
    return {
        "mean": 0.5 * ops.area * float(parts.mean @ parts.mean),
        "divergent": 0.5 * float(phi @ (ops.L @ phi)),
        "rotational": 0.5 * float(psi @ (ops.L @ psi)),
        "residual": 0.5 * float(resid @ (ops.Mv @ resid)),
    }
