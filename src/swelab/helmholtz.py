"""Discrete Helmholtz decomposition of the velocity space.

Every velocity field splits into a constant mean part, a gradient of a
mean-free quadratic potential, a rotated gradient of a mean-free quadratic
streamfunction, and a residual that is mass-orthogonal to all three.  The
two potentials decouple because rotated gradients of quadratics are exactly
mass-orthogonal to gradients of quadratics on a torus.

Each mesh keeps one slot, ``mesh.cache["potentials"]``: a copy of the last
velocity coefficients decomposed together with their potentials.  The
f-plane stepper (``dynamics._Stepper``) advances the slot in closed form
when it steps exactly that velocity, so that decomposing the next state
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


def decompose(u, tol=1e-12):
    """Split a velocity field u into mean + grad(phi) + perp(grad(psi)) + residual.

    When the mesh's potentials slot holds exactly u, its potentials are the
    initial guesses of the two solves; each solve still meets tol on its true
    residual, so a stale or inaccurate slot costs iterations only.  The slot
    then holds u and the potentials returned.
    """
    mesh = u.space.mesh
    ops = fem.operators(mesh)
    mvu = ops.Mv @ u.coeffs

    mean = ops.v_mean(u.coeffs)

    # both potential solves share the singular stiffness operator: testing
    # grad(phi) (resp. perp grad(psi)) against u reduces to L by exactness;
    # P^T = -P, so (P E)^T Mv u = -E^T P Mv u
    rhs_phi = ops.Et @ mvu
    rhs_psi = -(ops.Et @ (ops.P @ mvu))
    phi0, psi0 = _slot_potentials(mesh, u.coeffs) or (None, None)
    phi = ops.L_solver.solve(rhs_phi, tol=tol, x0=phi0)
    psi = ops.L_solver.solve(rhs_psi, tol=tol, x0=psi0)

    # the solver returns coefficient-mean-zero vectors; shift to integral mean zero
    phi -= ops.p2_mean(phi)
    psi -= ops.p2_mean(psi)
    _store_potentials(mesh, u.coeffs, phi, psi)

    resid = (
        u.coeffs
        - ops.constant_field(mean)
        - ops.E @ phi
        - ops.P @ (ops.E @ psi)
    )
    p2 = ops.p2
    return HelmholtzComponents(
        mean=mean,
        phi=Field(p2, phi),
        psi=Field(p2, psi),
        residual=Field(u.space, resid),
    )


def project_hp2(u, tol=1e-12):
    """Mass projection of u onto mean + gradients + rotated gradients."""
    parts = decompose(u, tol=tol)
    ops = fem.operators(u.space.mesh)
    coeffs = (
        ops.constant_field(parts.mean)
        + ops.E @ parts.phi.coeffs
        + ops.P @ (ops.E @ parts.psi.coeffs)
    )
    return Field(u.space, coeffs)


def component_energies(u, c2=1.0, tol=1e-12):
    """Kinetic energy of each component; they sum to the total by orthogonality."""
    ops = fem.operators(u.space.mesh)
    parts = decompose(u, tol=tol)
    pieces = {
        "mean": Field(u.space, ops.constant_field(parts.mean)),
        "divergent": Field(u.space, ops.E @ parts.phi.coeffs),
        "rotational": Field(u.space, ops.P @ (ops.E @ parts.psi.coeffs)),
        "residual": parts.residual,
    }
    return {
        name: 0.5 * float(f.coeffs @ (ops.Mv @ f.coeffs)) for name, f in pieces.items()
    }

