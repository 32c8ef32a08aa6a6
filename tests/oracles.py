"""Independent reference computations for the test suite.

Apart from ``ref_p2_basis`` and the ``*_blocks`` kernels below, everything
here avoids the package's own quadrature tables, basis evaluations and
assembly loops: triangle integrals go through a Duffy-collapsed tensor
Gauss-Legendre rule, and element matrices come from sympy closed-form
integration of symbolically constructed basis functions.  Agreement between these and the
package is a genuine dual-route check.  The brute-force counts
(``spurious_dimension``, ``rank_by_svd``) and the dict-and-loop edge
topology (``edge_topology``) are slow on purpose: they are what the
package's closed forms and array code must agree with.  The ``*_blocks``
element kernels share the package's basis and quadrature rules but sum over
the quadrature points face by face, the route the package took before it
contracted reference tensors with geometry; ``assemble_dense`` adds their
blocks into a dense matrix one face at a time.  ``ref_p2_basis`` evaluates
the package's basis at one checked barycentric point, the form in which the
tests compare it with the symbolic basis.  ``random_field``, ``recompose``
and ``symbolic_reference`` are helpers that only the tests use.
"""

import functools

import numpy as np
import scipy.linalg
import sympy as sp

from swelab import bloch, fem, helmholtz


def ref_p2_basis(point):
    """Values and reference gradients of the 6 P2 basis functions at one barycentric point."""
    lam = np.asarray(point, dtype=float)
    if lam.shape != (3,):
        raise ValueError("barycentric point must have 3 components")
    if lam.min() < -1e-12 or abs(lam.sum() - 1.0) > 1e-12:
        raise ValueError(f"invalid barycentric coordinates {lam}")
    return fem._p2_values(lam)[0], fem._p2_ref_grads(lam)[0]


def random_field(space, seed=0):
    rng = np.random.default_rng(seed)
    return fem.Field(space, rng.standard_normal(space.n_dofs))


def recompose(parts, mesh):
    """Reassemble a velocity field from its Helmholtz components."""
    ops = fem.operators(mesh)
    coeffs = (
        ops.constant_field(parts.mean)
        + ops.E @ parts.phi.coeffs
        + ops.P @ (ops.E @ parts.psi.coeffs)
        + parts.residual.coeffs
    )
    return fem.Field(ops.v, coeffs)


def symbolic_reference(kdx):
    """Closed-form reduced matrices; the oracle for bloch.reduced_matrices."""
    return bloch.BlochMatrices((float(kdx[0]), float(kdx[1])), *bloch._closed_forms(kdx))


def duffy_integrate(f, corners, n=12):
    """Integrate f(x, y) over the triangle via the Duffy square collapse.

    The unit square (s, t) maps to barycentric (1-s, s(1-t), st); the
    Jacobian of the full map to physical space is 2A*s.
    """
    corners = np.asarray(corners, dtype=float)
    gl_x, gl_w = np.polynomial.legendre.leggauss(n)
    s = 0.5 * (gl_x + 1.0)
    w = 0.5 * gl_w
    area2 = abs(
        (corners[1, 0] - corners[0, 0]) * (corners[2, 1] - corners[0, 1])
        - (corners[2, 0] - corners[0, 0]) * (corners[1, 1] - corners[0, 1])
    )
    total = 0.0
    for si, wi in zip(s, w):
        lam1 = 1.0 - si
        for tj, wj in zip(s, w):
            lam2 = si * (1.0 - tj)
            lam3 = si * tj
            x = lam1 * corners[0] + lam2 * corners[1] + lam3 * corners[2]
            total += wi * wj * si * f(x[0], x[1])
    return area2 * total


def monomial_integral(a, b, c, area):
    """Exact integral of lam1^a lam2^b lam3^c over a triangle of given area."""
    num = (
        sp.factorial(a) * sp.factorial(b) * sp.factorial(c)
        / sp.factorial(a + b + c + 2)
    )
    return float(2 * num * area)


@functools.lru_cache(maxsize=None)
def _p2_symbolic():
    """The six quadratic basis functions in barycentric form (sympy)."""
    l1, l2, l3 = sp.symbols("l1 l2 l3")
    vertex = [l * (2 * l - 1) for l in (l1, l2, l3)]
    # midpoint opposite vertex e pairs the other two coordinates
    pairs = [(l2, l3), (l3, l1), (l1, l2)]
    edge = [4 * a * b for a, b in pairs]
    return (l1, l2, l3), vertex + edge


def element_matrices_exact(corners):
    """6x6 mass/stiffness/ddx/ddy matrices by sympy integration over the triangle."""
    (l1, l2, l3), basis = _p2_symbolic()
    x, y = sp.symbols("x y")
    P = [sp.Matrix([sp.nsimplify(c[0], rational=True), sp.nsimplify(c[1], rational=True)])
         for c in corners]
    # barycentric coordinates as affine functions of (x, y)
    T = sp.Matrix([[P[0][0], P[1][0], P[2][0]],
                   [P[0][1], P[1][1], P[2][1]],
                   [1, 1, 1]])
    lam_xy = T.solve(sp.Matrix([x, y, 1]))
    subs = {l1: lam_xy[0], l2: lam_xy[1], l3: lam_xy[2]}
    phi = [sp.expand(b.subs(subs)) for b in basis]
    area2 = sp.Abs(T.det())

    # integrate over the reference square via the affine pullback:
    # x(s,t) with barycentric (1-s, s(1-t), s t), jacobian area2 * s
    s, t = sp.symbols("s t", nonnegative=True)
    lam = (1 - s, s * (1 - t), s * t)
    xy = (lam[0] * P[0] + lam[1] * P[1] + lam[2] * P[2])

    def tri_integral(expr):
        pulled = sp.expand(expr.subs({x: xy[0], y: xy[1]})) * area2 * s
        inner = sp.integrate(pulled, (t, 0, 1))
        return sp.integrate(inner, (s, 0, 1))

    n = 6
    M = sp.zeros(n, n)
    L = sp.zeros(n, n)
    D1 = sp.zeros(n, n)
    D2 = sp.zeros(n, n)
    gx = [sp.diff(p, x) for p in phi]
    gy = [sp.diff(p, y) for p in phi]
    for i in range(n):
        for j in range(i, n):
            M[i, j] = M[j, i] = tri_integral(phi[i] * phi[j])
            L[i, j] = L[j, i] = tri_integral(gx[i] * gx[j] + gy[i] * gy[j])
        for j in range(n):
            D1[i, j] = tri_integral(phi[i] * gx[j])
            D2[i, j] = tri_integral(phi[i] * gy[j])
    conv = lambda Mat: np.array(Mat.evalf(17), dtype=float)
    return conv(M), conv(L), conv(D1), conv(D2)


def p2_value_exact(corners, dof, point):
    """Value of one symbolic P2 basis function at a physical point."""
    (l1, l2, l3), basis = _p2_symbolic()
    x, y = sp.symbols("x y")
    r = lambda v: sp.nsimplify(v, rational=True)
    T = sp.Matrix([[r(corners[0][0]), r(corners[1][0]), r(corners[2][0])],
                   [r(corners[0][1]), r(corners[1][1]), r(corners[2][1])],
                   [1, 1, 1]])
    lam_xy = T.solve(sp.Matrix([x, y, 1]))
    expr = basis[dof].subs({l1: lam_xy[0], l2: lam_xy[1], l3: lam_xy[2]})
    return float(expr.subs({x: point[0], y: point[1]}))


def p1_vector_mass_exact(corners):
    """6x6 mass matrix of the elementwise-linear 2-vector basis, dof = 2i+c."""
    A = 0.5 * abs(
        (corners[1][0] - corners[0][0]) * (corners[2][1] - corners[0][1])
        - (corners[2][0] - corners[0][0]) * (corners[1][1] - corners[0][1])
    )
    scalar = np.full((3, 3), 1.0 / 12.0)
    np.fill_diagonal(scalar, 1.0 / 6.0)
    return A * np.kron(scalar, np.eye(2))


def rank_by_svd(columns, rel=1e-8):
    """Numerical rank of a stack of column vectors."""
    A = np.column_stack(columns)
    s = np.linalg.svd(A, compute_uv=False)
    if s.size == 0 or s[0] == 0:
        return 0
    return int(np.sum(s > rel * s[0]))


def pencil_eigvals(A, B):
    """Eigenvalues of the pencil A v = w B v by the non-Hermitian route.

    The general eigensolver on B^-1 A uses no symmetry, so for a Hermitian
    pencil the imaginary parts of its complex, unordered result show the
    rounding of this route only.
    """
    return scipy.linalg.eigvals(np.linalg.solve(B, A))


def spurious_dimension(mesh, tol=1e-12):
    """Dimension of the residual subspace, found by decomposing every basis vector.

    Quadratic cost in the velocity dimension; intended for small meshes.
    """
    ops = fem.operators(mesh)
    n = ops.v.n_dofs
    if mesh.n_f > 200:
        raise ValueError("spurious_dimension is limited to meshes with at most 200 faces")
    cols = np.empty((n, n))
    for j in range(n):
        e = np.zeros(n)
        e[j] = 1.0
        cols[:, j] = helmholtz.decompose(fem.Field(ops.v, e), tol=tol).residual.coeffs
    s = np.linalg.svd(cols, compute_uv=False)
    return int(np.sum(s > 1e-8 * s[0]))


def edge_topology(triangles, shifts):
    """Edge arrays of a periodic triangulation by a dict over canonical side keys.

    Returns (edges, edge_shifts, tri_edges, edge_tris, edge_degree) as the
    Mesh fields of the same names: side e of face f joins corners e+1 and
    e+2, keyed (va, vb, shift delta) with va <= vb (for va == vb the delta
    that is lexicographically no larger than its negation); edges are
    numbered in sorted key order and edge_tris holds the first two faces
    that meet an edge, in face order.
    """
    key_index = {}
    edges, eshifts, degree, etris = [], [], [], []
    n_f = len(triangles)
    tri_edges = np.empty((n_f, 3), dtype=np.intp)
    for f in range(n_f):
        tri = triangles[f]
        s = shifts[f]
        for e in range(3):
            a, b = (e + 1) % 3, (e + 2) % 3
            va, vb = int(tri[a]), int(tri[b])
            d = (int(s[b, 0] - s[a, 0]), int(s[b, 1] - s[a, 1]))
            if va > vb or (va == vb and d < (-d[0], -d[1])):
                va, vb, d = vb, va, (-d[0], -d[1])
            key = (va, vb, d)
            idx = key_index.get(key)
            if idx is None:
                idx = len(edges)
                key_index[key] = idx
                edges.append((va, vb))
                eshifts.append(d)
                degree.append(0)
                etris.append([-1, -1])
            if degree[idx] < 2:
                etris[idx][degree[idx]] = f
            degree[idx] += 1
            tri_edges[f, e] = idx
    n_e = len(edges)
    order = sorted(range(n_e), key=lambda i: (edges[i][0], edges[i][1], eshifts[i]))
    rank = np.empty(n_e, dtype=np.intp)
    rank[order] = np.arange(n_e)
    return (
        np.array([edges[i] for i in order], dtype=np.intp).reshape(n_e, 2),
        np.array([eshifts[i] for i in order], dtype=np.intp).reshape(n_e, 2),
        rank[tri_edges],
        np.array([etris[i] for i in order], dtype=np.intp).reshape(n_e, 2),
        np.array([degree[i] for i in order], dtype=np.intp),
    )


def _face_geometry(X):
    """Inverse Jacobians and areas of the faces with corners X, (n, 3, 2)."""
    J = np.stack([X[:, 1] - X[:, 0], X[:, 2] - X[:, 0]], axis=-1)
    return np.linalg.inv(J), 0.5 * np.linalg.det(J)


def _symmetrize(blocks):
    return 0.5 * (blocks + np.swapaxes(blocks, -1, -2))


def p2_mass_blocks(X, quad):
    _, area = _face_geometry(X)
    V = fem._p2_values(quad.points)
    return 2.0 * area[:, None, None] * _symmetrize(np.einsum("q,qi,qj->ij", quad.weights, V, V))


def p2_stiffness_blocks(X, quad):
    Jinv, area = _face_geometry(X)
    Gp = np.einsum("qid,fdc->fqic", fem._p2_ref_grads(quad.points), Jinv)
    blocks = 2.0 * area[:, None, None] * np.einsum("q,fqic,fqjc->fij", quad.weights, Gp, Gp)
    return _symmetrize(blocks)


def p2_ddx_blocks(X, quad, direction):
    Jinv, area = _face_geometry(X)
    Gp = np.einsum("qid,fdc->fqic", fem._p2_ref_grads(quad.points), Jinv)
    dirG = np.einsum("fqic,c->fqi", Gp, np.asarray(direction, dtype=float))
    V = fem._p2_values(quad.points)
    return 2.0 * area[:, None, None] * np.einsum("q,qi,fqj->fij", quad.weights, V, dirG)


def gradient_blocks(X):
    Jinv, _ = _face_geometry(X)
    Gc = fem._p2_ref_grads(np.eye(3))  # (3, 6, 2) reference gradients at the corners
    return np.einsum("ijd,fdc->ficj", Gc, Jinv).reshape(len(X), 6, 6)


def p1dg_mass_blocks(X, quad):
    _, area = _face_geometry(X)
    lam = np.atleast_2d(quad.points)
    W = _symmetrize(np.einsum("q,qi,qj->ij", quad.weights, lam, lam))
    return 2.0 * area[:, None, None] * np.kron(W, np.eye(2))


def coriolis_blocks(X, f, quad):
    """Blocks of <f w, perp(u)> for a constant or an affine callable f."""
    _, area = _face_geometry(X)
    lam = np.atleast_2d(quad.points)
    fvals = f(np.einsum("qk,fkc->fqc", lam, X)) if callable(f) else np.full((len(X), len(lam)), f)
    Wf = np.einsum("q,fq,qi,qj->fij", quad.weights, fvals, lam, lam)
    Wf = _symmetrize(Wf) * 2.0 * area[:, None, None]
    return np.kron(Wf, np.array([[0.0, -1.0], [1.0, 0.0]]))


def assemble_dense(blocks, rows, cols, shape):
    """Dense sum of element blocks, added face by face."""
    A = np.zeros(shape)
    for block, r, c in zip(blocks, rows, cols):
        A[np.ix_(r, c)] += block
    return A
