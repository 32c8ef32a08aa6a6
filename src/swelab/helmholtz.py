"""Discrete Helmholtz decomposition of the velocity space.

Every velocity field splits into a constant mean part, a gradient of a
mean-free quadratic potential, a rotated gradient of a mean-free quadratic
streamfunction, and a residual that is mass-orthogonal to all three.  The
two potentials decouple because rotated gradients of quadratics are exactly
mass-orthogonal to gradients of quadratics on a torus.
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


def decompose(u, tol=1e-12):
    """Split a velocity field u into mean + grad(phi) + perp(grad(psi)) + residual."""
    ops = fem.operators(u.space.mesh)
    mvu = ops.Mv @ u.coeffs

    mean = ops.v_mean(u.coeffs)

    # both potential solves share the singular stiffness operator: testing
    # grad(phi) (resp. perp grad(psi)) against u reduces to L by exactness
    rhs_phi = ops.E.T @ mvu
    rhs_psi = ops.E.T @ (ops.P.T @ mvu)
    phi = ops.L_solver.solve(rhs_phi, tol=tol)
    psi = ops.L_solver.solve(rhs_psi, tol=tol)

    # the solver returns coefficient-mean-zero vectors; shift to integral mean zero
    phi -= ops.p2_mean(phi)
    psi -= ops.p2_mean(psi)

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

