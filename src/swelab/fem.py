"""Reference elements, quadrature, and operator assembly.

Two spaces: scalar P2 (continuous, one dof per vertex and per edge) and
vector P1DG (elementwise linear, discontinuous, 6 dofs per triangle laid
out as x0,y0,x1,y1,x2,y2 at the triangle corners).

Local P2 node order: three vertices, then the three edge midpoints with
midpoint e opposite vertex e.  All element integrals are mapped from the
reference triangle (0,0)-(1,0)-(0,1).
"""

from __future__ import annotations

import collections
import functools
import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import ParameterError, linalg
from .mesh import Mesh, _format_rows

__all__ = [
    "QuadratureRule",
    "quadrature_rule",
    "P2Space",
    "P1dgVecSpace",
    "Field",
    "assemble_coriolis",
    "assemble_ddx_p2",
    "collocate",
    "project_p2vec_to_p1dg",
    "operators",
    "write_matrix_text",
]

# reference-coordinate gradients of the barycentric coordinates
_GRAD_LAMBDA = np.array([[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]])

# pointwise perp (u1, u2) -> (-u2, u1) of one vector
_PERP = np.array([[0.0, -1.0], [1.0, 0.0]])


@dataclass(frozen=True, eq=False)
class QuadratureRule:
    """Symmetric rule on the reference triangle; weights sum to its area 1/2.

    Rules compare and hash by identity, so per-rule tables can be cached.
    """

    points: np.ndarray   # (nq, 3) barycentric coordinates
    weights: np.ndarray  # (nq,)
    degree: int


def _orbit3(b):
    return [(1.0 - 2.0 * b, b, b), (b, 1.0 - 2.0 * b, b), (b, b, 1.0 - 2.0 * b)]


def _make_rules():
    rules = {}
    rules[1] = QuadratureRule(
        np.array([[1.0, 1.0, 1.0]]) / 3.0, np.array([0.5]), 1
    )
    # edge midpoints, exact through degree 2
    rules[2] = QuadratureRule(
        np.array([[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.5, 0.0, 0.5]]),
        np.full(3, 1.0 / 6.0),
        2,
    )
    # 6-point rule, exact through degree 4 (two symmetric orbits, closed form)
    s10 = np.sqrt(10.0)
    root = np.sqrt(38.0 - 44.0 * np.sqrt(0.4))
    b1 = (8.0 - s10 + root) / 18.0
    b2 = (8.0 - s10 - root) / 18.0
    wroot = np.sqrt(213125.0 - 53320.0 * s10)
    w1 = (620.0 + wroot) / 3720.0 / 2.0
    w2 = (620.0 - wroot) / 3720.0 / 2.0
    rules[4] = QuadratureRule(
        np.array(_orbit3(b1) + _orbit3(b2)),
        np.array([w1] * 3 + [w2] * 3),
        4,
    )
    # 7-point rule, exact through degree 5
    s15 = np.sqrt(15.0)
    a1 = (6.0 + s15) / 21.0
    a2 = (6.0 - s15) / 21.0
    rules[5] = QuadratureRule(
        np.array([[1.0 / 3.0] * 3] + _orbit3(a1) + _orbit3(a2)),
        np.array([9.0 / 80.0] + [(155.0 + s15) / 2400.0] * 3 + [(155.0 - s15) / 2400.0] * 3),
        5,
    )
    return rules


_RULES = _make_rules()


def quadrature_rule(degree):
    """Smallest stocked symmetric rule exact to at least `degree`."""
    for d in sorted(_RULES):
        if d >= degree:
            return _RULES[d]
    raise ParameterError(f"no quadrature rule of degree {degree} (max {max(_RULES)})")


def _p2_values(lam):
    """P2 basis values at barycentric points, shape (nq, 6)."""
    lam = np.atleast_2d(lam)
    out = np.empty((lam.shape[0], 6))
    out[:, :3] = lam * (2.0 * lam - 1.0)
    for e in range(3):
        a, b = (e + 1) % 3, (e + 2) % 3
        out[:, 3 + e] = 4.0 * lam[:, a] * lam[:, b]
    return out


def _p2_ref_grads(lam):
    """Reference-coordinate P2 gradients at barycentric points, (nq, 6, 2)."""
    lam = np.atleast_2d(lam)
    out = np.empty((lam.shape[0], 6, 2))
    for i in range(3):
        out[:, i, :] = (4.0 * lam[:, i] - 1.0)[:, None] * _GRAD_LAMBDA[i]
    for e in range(3):
        a, b = (e + 1) % 3, (e + 2) % 3
        out[:, 3 + e, :] = 4.0 * (
            lam[:, a][:, None] * _GRAD_LAMBDA[b] + lam[:, b][:, None] * _GRAD_LAMBDA[a]
        )
    return out


@dataclass(eq=False)
class P2Space:
    """Continuous quadratics: one dof per vertex, then one per edge."""

    mesh: Mesh

    @property
    def n_dofs(self):
        return self.mesh.n_v + self.mesh.n_e

    def cell_dofs(self):
        """(n_f, 6) global dofs in local node order."""
        m = self.mesh
        return np.hstack([m.triangles, m.n_v + m.tri_edges])

    def dof_points(self):
        """Nodal coordinates: vertices, then canonical edge midpoints."""
        return np.vstack([self.mesh.vertices, self.mesh.edge_midpoints()])


@dataclass(eq=False)
class P1dgVecSpace:
    """Elementwise-linear 2-vectors, 6 dofs per triangle, no sharing."""

    mesh: Mesh

    @property
    def n_dofs(self):
        return 6 * self.mesh.n_f

    def cell_dofs(self):
        base = 6 * np.arange(self.mesh.n_f, dtype=np.intp)
        return base[:, None] + np.arange(6, dtype=np.intp)


@dataclass
class Field:
    """Coefficient vector tagged with its space."""

    space: object
    coeffs: np.ndarray

    def __post_init__(self):
        self.coeffs = np.asarray(self.coeffs, dtype=float)
        if self.coeffs.shape != (self.space.n_dofs,):
            raise ParameterError(
                f"coefficient length {self.coeffs.shape} does not match space ({self.space.n_dofs},)"
            )

    @classmethod
    def zeros(cls, space):
        return cls(space, np.zeros(space.n_dofs))

    def copy(self):
        return Field(self.space, self.coeffs.copy())


# --------------------------------------------------------------------------
# geometry


def _geometry(X):
    """Inverse Jacobians and areas of the faces with corner coordinates X, (n_f, 3, 2)."""
    J = np.stack([X[:, 1] - X[:, 0], X[:, 2] - X[:, 0]], axis=-1)  # columns
    det = J[:, 0, 0] * J[:, 1, 1] - J[:, 0, 1] * J[:, 1, 0]
    if np.any(det <= 0):
        raise ParameterError("triangle corners are not counter-clockwise")
    Jinv = np.empty_like(J)
    Jinv[:, 0, 0] = J[:, 1, 1]
    Jinv[:, 0, 1] = -J[:, 0, 1]
    Jinv[:, 1, 0] = -J[:, 1, 0]
    Jinv[:, 1, 1] = J[:, 0, 0]
    Jinv /= det[:, None, None]
    return Jinv, 0.5 * det


def _face_geometry(mesh):
    """Corner coordinates, inverse Jacobians and areas of the faces, built once per mesh."""
    geometry = mesh.cache.get("geometry")
    if geometry is None:
        X = mesh.corner_coords()
        geometry = mesh.cache["geometry"] = (X, *_geometry(X))
    return geometry


def _symmetrize(blocks):
    return 0.5 * (blocks + np.swapaxes(blocks, -1, -2))


def _scatter(blocks, space, col_space=None):
    """Sum elementwise blocks into a CSR matrix from col_space (default: space) to space."""
    col_space = col_space or space
    # index arrays of the dtype the CSR matrix stores, which scipy then need not copy
    idx = np.int32 if max(space.n_dofs, col_space.n_dofs) <= np.iinfo(np.int32).max else np.int64
    rows, cols = space.cell_dofs().astype(idx), col_space.cell_dofs().astype(idx)
    r = np.repeat(rows[:, :, None], cols.shape[1], axis=2).ravel()
    c = np.repeat(cols[:, None, :], rows.shape[1], axis=1).ravel()
    A = sp.coo_matrix((blocks.ravel(), (r, c)), shape=(space.n_dofs, col_space.n_dofs))
    return A.tocsr()


# --------------------------------------------------------------------------
# element matrices, batched over faces (also the blocks of the dispersion patch)
#
# On an affine triangle each element matrix is a reference tensor, built once
# per quadrature rule, contracted with a few geometry numbers of the face
# (Kirby & Logg, ACM TOMS 32, 2006).  With Jinv the inverse Jacobian of the
# reference map and |T| the area, the stiffness of face f is
#
#     K_f = sum_ab G_ab K_ref^ab,   G = 2|T| Jinv Jinv^T,
#     K_ref^ab_ij = sum_q w_q dN_i/dr_a dN_j/dr_b,
#
# one (n_f, 4) @ (4, 36) product for all faces.  The d/dx blocks, the
# gradient embedding and the Coriolis blocks take the geometry
# 2|T| Jinv direction, Jinv and f(x_q) = f0 + beta y_q in the same way.


_RefTensors = collections.namedtuple("_RefTensors", "mass stiffness ddx coriolis p1_mass")


@functools.lru_cache(maxsize=None)
def _ref_tensors(quad):
    """Mass (6, 6), stiffness (4, 36) by rows ab, ddx (2, 36) by rows d,
    coriolis (nq, 9) by rows q: w_q lam_qi lam_qj, and the P1 mass (3, 3),
    for one quadrature rule."""
    V, G, w = _p2_values(quad.points), _p2_ref_grads(quad.points), quad.weights
    lam = np.atleast_2d(quad.points)
    K = np.einsum("q,qia,qjb->abij", w, G, G)
    return _RefTensors(
        _symmetrize(np.einsum("q,qi,qj->ij", w, V, V)),
        (0.5 * (K + K.transpose(1, 0, 3, 2))).reshape(4, 36),
        np.einsum("q,qi,qjd->dij", w, V, G).reshape(2, 36),
        (w[:, None, None] * lam[:, :, None] * lam[:, None, :]).reshape(-1, 9),
        _symmetrize(np.einsum("q,qi,qj->ij", w, lam, lam)),
    )


def _p2_mass_blocks(area, quad):
    return 2.0 * area[:, None, None] * _ref_tensors(quad).mass


def _p2_stiffness_blocks(Jinv, area, quad):
    G = 2.0 * area[:, None, None] * (Jinv @ np.swapaxes(Jinv, 1, 2))
    return _symmetrize((G.reshape(-1, 4) @ _ref_tensors(quad).stiffness).reshape(-1, 6, 6))


def _p2_ddx_blocks(Jinv, area, quad, direction):
    g = 2.0 * area[:, None] * (Jinv @ direction)
    return (g @ _ref_tensors(quad).ddx).reshape(-1, 6, 6)


def _p1dg_mass_blocks(area, quad):
    return 2.0 * area[:, None, None] * np.kron(_ref_tensors(quad).p1_mass, np.eye(2))


def _coriolis_blocks(X, area, f0, beta, quad):
    fvals = f0 + beta * (X[..., 1] @ np.atleast_2d(quad.points).T)  # (n_f, nq)
    Wf = (fvals @ _ref_tensors(quad).coriolis).reshape(-1, 3, 3)
    return np.kron(_symmetrize(Wf) * 2.0 * area[:, None, None], _PERP)


def _evaluate(fn, x, value_shape=()):
    """Values of a callback on points of shape (..., 2), shaped (..., *value_shape).

    fn is called once, on all points as an (n, 2) array, and must return
    an (n, *value_shape) array.
    """
    flat = x.reshape(-1, 2)
    vals = np.asarray(fn(flat), dtype=float)
    if vals.shape != (len(flat), *value_shape):
        raise ParameterError(
            f"callback returned shape {vals.shape} for {len(flat)} points, "
            f"expected {(len(flat), *value_shape)}"
        )
    return vals.reshape(*x.shape[:-1], *value_shape)


# E_ref[dc, iej] = Gc[i, j, d] [c == e] with Gc[i, j, d] the reference
# gradient of N_j at corner i
_EMBED_REF = np.einsum("ijd,ce->dciej", _p2_ref_grads(np.eye(3)), np.eye(2)).reshape(4, 36)


def _gradient_blocks(Jinv):
    """Component e of grad N_j at corner i of each face, (n_f, 6, 6) with rows 2i+e."""
    return (Jinv.reshape(-1, 4) @ _EMBED_REF).reshape(-1, 6, 6)


# --------------------------------------------------------------------------
# global assembly of the operators that depend on a parameter; the fixed
# ones are built by operators() below


def assemble_coriolis(space, f0, beta=0.0):
    """C with (C u)_w = <f w, perp(u)> for the Coriolis parameter f = f0 + beta y."""
    X, _, area = _face_geometry(space.mesh)
    return _scatter(_coriolis_blocks(X, area, f0, beta, _RULES[5]), space)


def _east(fhat):
    """Unit local east: the clockwise quarter-turn of the direction fhat of
    increasing f, the direction of the beta-plane derivative pairings."""
    fhat = np.asarray(fhat, dtype=float)
    nf = math.hypot(fhat[0], fhat[1])
    if not 0 < nf < math.inf:
        raise ParameterError("fhat must be a nonzero finite direction")
    return np.array([fhat[1], -fhat[0]]) / nf


def assemble_ddx_p2(space, direction):
    """D with (D psi)_alpha = <alpha, direction . grad psi>; skew on a torus."""
    _, Jinv, area = _face_geometry(space.mesh)
    blocks = _p2_ddx_blocks(Jinv, area, _RULES[4], np.asarray(direction, dtype=float))
    return _scatter(blocks, space)


def collocate(space, fn):
    """Nodal interpolation: point values at the dof nodes become coefficients."""
    if isinstance(space, P2Space):
        pts = space.dof_points()
        return Field(space, _evaluate(fn, pts))
    if isinstance(space, P1dgVecSpace):
        return Field(space, _evaluate(fn, space.mesh.corner_coords(), (2,)).ravel())
    raise TypeError(f"cannot collocate onto {type(space).__name__}")


def _projection_stencil():
    # element-local L2 projection of a quadratic onto linears is geometry
    # independent on affine triangles: both Gram matrices scale with area
    quad = _RULES[4]
    lam = np.atleast_2d(quad.points)
    B = np.einsum("q,qi,qj->ij", quad.weights, lam, _p2_values(quad.points))
    return np.linalg.solve(_ref_tensors(quad).p1_mass, B)  # (3, 6)


_PROJ = _projection_stencil()


def project_p2vec_to_p1dg(ux, uy, vspace=None):
    """Element-local L2-best linear approximation of a quadratic vector field.

    The two components are given as P2 fields; the result is a P1DG vector
    field.  Elementwise-linear input is reproduced exactly.
    """
    space = ux.space
    if uy.space is not space and uy.space.mesh is not space.mesh:
        raise ParameterError("component fields must live on the same mesh")
    if vspace is None:
        vspace = operators(space.mesh).v
    cd = space.cell_dofs()
    px = np.einsum("ij,fj->fi", _PROJ, ux.coeffs[cd])
    py = np.einsum("ij,fj->fi", _PROJ, uy.coeffs[cd])
    coeffs = np.stack([px, py], axis=-1).reshape(-1)
    return Field(vspace, coeffs)


# --------------------------------------------------------------------------
# shared operator bundle


def _cell_layout(space):
    """(n1, n2, perm) if the P2 space's mesh is a torus of n1 x n2 translated
    cells, else None; perm orders the dofs by class, then by cell i n2 + j.
    In cell coordinates from vertex 0 such dofs lie on the half-integer grid,
    whatever the face order, and the parities of their two coordinates give
    their class: vertex, first edge, second edge (along the lattice rows) or
    diagonal."""
    mesh = space.mesh
    frac = (space.dof_points() - mesh.vertices[0]) @ np.linalg.inv(mesh.lattice)
    frac -= np.rint(frac)
    # the cell sides are the least nonzero vertex fractions, 1/n1 and 1/n2
    side = [abs(f[abs(f) > 0.25 / mesh.n_v]).min(initial=1.0) for f in frac[:mesh.n_v].T]
    n1, n2 = np.rint(1.0 / np.array(side)).astype(int)
    half = 2.0 * frac * (n1, n2)
    grid = np.rint(half).astype(np.intp)
    cell = grid // 2 % (n1, n2)
    key = (grid[:, 0] % 2 + 2 * (grid[:, 1] % 2)) * mesh.n_v + cell[:, 0] * n2 + cell[:, 1]
    perm = np.argsort(key)
    # every point on the grid, and one dof per class and cell
    ok = n1 * n2 == mesh.n_v and abs(half - grid).max() <= 1e-6
    return (n1, n2, perm) if ok and np.array_equal(key[perm], np.arange(len(key))) else None


@dataclass(eq=False)
class OperatorSet:
    p2: P2Space
    v: P1dgVecSpace
    M: sp.csr_matrix    # P2 mass
    L: sp.csr_matrix    # P2 stiffness
    Mv: sp.csr_matrix   # P1DG vector mass
    E: sp.csr_matrix    # exact gradient embedding P2 -> P1DG
    P: sp.csr_matrix    # pointwise perp
    area: float

    @functools.cached_property
    def Et(self):
        """E^T as a CSC view that shares E's arrays, built once per mesh."""
        return self.E.T

    @functools.cached_property
    def p1_prolongation(self):
        """The P2 -> P1 interpolation R, built once per mesh: P1 coefficients to
        the P2 coefficients of the same piecewise-linear field, identity on the
        vertex dofs and 1/2, 1/2 from the two end vertices on each edge dof.
        Multigrid coarsens P2 matrices to P1 by it."""
        mesh = self.p2.mesh
        n_v, n_e = mesh.n_v, mesh.n_e
        rows = np.concatenate([np.arange(n_v), np.repeat(n_v + np.arange(n_e), 2)])
        vals = np.concatenate([np.ones(n_v), np.full(2 * n_e, 0.5)])
        return sp.csr_matrix((vals, (rows, np.concatenate([np.arange(n_v), mesh.edges.ravel()]))),
                             shape=(n_v + n_e, n_v))

    @functools.cached_property
    def cell_layout(self):
        """``_cell_layout`` of the P2 space, built once per mesh."""
        return _cell_layout(self.p2)

    @functools.cached_property
    def L_solver(self):
        """Solver for L on the mean-free subspace, prepared on first use: on
        ``cell_layout`` Jacobi until the first solve passes
        ``linalg._SWITCH_AFTER`` applications, then the exact Bloch solve;
        where the mesh is not a cell torus, the multigrid preconditioner on
        ``p1_prolongation``."""
        return linalg.Solver(self.L, nullspace=True, coarse=self.p1_prolongation,
                             lattice=self.cell_layout)

    def constant_field(self, vec):
        """P1DG coefficients of a constant vector field."""
        c = np.tile(np.asarray(vec, dtype=float), 3 * self.v.mesh.n_f)
        return c

    @functools.cached_property
    def p2_weights(self):
        """Integrals of the P2 basis functions, M 1, built once per mesh."""
        return self.M @ np.ones(self.p2.n_dofs)

    def p2_mean(self, coeffs):
        """Integral mean <h, 1> / |domain|."""
        return float(self.p2_weights @ coeffs) / self.area


def operators(mesh):
    """Assemble (once per mesh) the operator bundle shared across modules."""
    ops = mesh.cache.get("operators")
    if ops is None:
        p2, v = P2Space(mesh), P1dgVecSpace(mesh)
        _, Jinv, area = _face_geometry(mesh)
        quad = _RULES[4]
        ops = mesh.cache["operators"] = OperatorSet(
            p2=p2,
            v=v,
            M=_scatter(_p2_mass_blocks(area, quad), p2),
            L=_scatter(_p2_stiffness_blocks(Jinv, area, quad), p2),
            Mv=_scatter(_p1dg_mass_blocks(area, quad), v),
            E=_scatter(_gradient_blocks(Jinv), v, p2),
            P=sp.kron(sp.identity(3 * mesh.n_f), _PERP, format="csr"),
            area=float(area.sum()),
        )
    return ops


def write_matrix_text(A, path_or_file):
    """Coordinate text export: header 'n_rows n_cols nnz', then 'row col value'."""
    A = sp.coo_matrix(A)
    order = np.lexsort((A.col, A.row))
    text = f"{A.shape[0]} {A.shape[1]} {A.nnz}\n" + _format_rows(
        "{} {} {:.17g}\n", A.row[order], A.col[order], A.data[order])
    if hasattr(path_or_file, "write"):
        path_or_file.write(text)
    else:
        with open(path_or_file, "w") as fh:
            fh.write(text)
