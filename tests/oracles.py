"""Independent reference computations for the test suite.

Everything here deliberately avoids the package's own quadrature tables,
basis evaluations and assembly loops: triangle integrals go through a
Duffy-collapsed tensor Gauss-Legendre rule, and element matrices come from
sympy closed-form integration of symbolically constructed basis functions.
Agreement between these and the package is a genuine dual-route check.
The brute-force counts (``spurious_dimension``, ``rank_by_svd``) and the
dict-and-loop edge topology (``edge_topology``) are slow on purpose: they
are what the package's closed forms and array code must agree with.
"""

import functools

import numpy as np
import scipy.linalg
import sympy as sp

from swelab import fem, helmholtz


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
