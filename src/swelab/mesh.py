"""Doubly-periodic planar triangulations.

A mesh lives on a torus spanned by two lattice vectors (the rows of
``lattice``).  Vertex coordinates are stored once, inside the fundamental
cell; every triangle corner additionally carries an integer shift, in
lattice units, so that

    corner = vertices[triangles[f, c]] + shifts[f, c] @ lattice

is geometrically contiguous even when the triangle wraps around the seam.
Edges are derived from the triangles.  The edge key includes the shift
difference of its endpoints, which keeps parallel edges and self-loops on
small tori distinct.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Mesh",
    "MeshFormatError",
    "MeshReport",
    "build_equilateral_torus",
    "build_right_triangle_torus",
    "validate",
    "read_mesh",
    "write_mesh",
    "reciprocal_wavevector",
]


class MeshFormatError(ValueError):
    """Raised by read_mesh with the offending 1-based line number."""

    def __init__(self, lineno, message):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


@dataclass(eq=False)
class Mesh:
    vertices: np.ndarray   # (n_v, 2) float
    triangles: np.ndarray  # (n_f, 3) int, counter-clockwise in unrolled coords
    shifts: np.ndarray     # (n_f, 3, 2) int, per-corner shift in lattice units
    lattice: np.ndarray    # (2, 2) float, rows are the torus generators

    # derived topology, filled in by __post_init__
    edges: np.ndarray = field(init=False)        # (n_e, 2) canonical vertex pair
    edge_shifts: np.ndarray = field(init=False)  # (n_e, 2) canonical endpoint shift delta
    tri_edges: np.ndarray = field(init=False)    # (n_f, 3), edge opposite local vertex e
    edge_tris: np.ndarray = field(init=False)    # (n_e, 2), -1 where adjacency is missing
    edge_degree: np.ndarray = field(init=False)  # (n_e,), number of adjacent face sides
    # per-mesh results of other modules (operators, steppers); freed with the mesh
    cache: dict = field(init=False, repr=False, default_factory=dict)

    def __post_init__(self):
        self.vertices = np.ascontiguousarray(self.vertices, dtype=float)
        self.triangles = np.ascontiguousarray(self.triangles, dtype=np.intp)
        self.shifts = np.ascontiguousarray(self.shifts, dtype=np.intp)
        self.lattice = np.ascontiguousarray(self.lattice, dtype=float)
        if self.vertices.ndim != 2 or self.vertices.shape[1] != 2:
            raise ValueError("vertices must be an (n_v, 2) array")
        if self.triangles.ndim != 2 or self.triangles.shape[1] != 3:
            raise ValueError("triangles must be an (n_f, 3) array")
        if self.shifts.shape != (*self.triangles.shape, 2):
            raise ValueError("shifts must be an (n_f, 3, 2) array")
        if self.lattice.shape != (2, 2):
            raise ValueError("lattice must be a 2x2 array")
        if self.triangles.size and (
            self.triangles.min() < 0 or self.triangles.max() >= len(self.vertices)
        ):
            raise ValueError("triangle vertex index out of range")
        self._build_edges()

    @property
    def n_v(self):
        return len(self.vertices)

    @property
    def n_f(self):
        return len(self.triangles)

    @property
    def n_e(self):
        return len(self.edges)

    @property
    def domain_area(self):
        return abs(np.linalg.det(self.lattice))

    def corner_coords(self):
        """Unrolled (geometrically contiguous) corner coordinates, (n_f, 3, 2)."""
        return self.vertices[self.triangles] + self.shifts @ self.lattice

    def areas(self):
        """Signed triangle areas; positive for counter-clockwise corners."""
        x = self.corner_coords()
        d1 = x[:, 1] - x[:, 0]
        d2 = x[:, 2] - x[:, 0]
        return 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])

    def edge_midpoints(self):
        """One representative midpoint per edge (canonical unrolling)."""
        va = self.vertices[self.edges[:, 0]]
        vb = self.vertices[self.edges[:, 1]] + self.edge_shifts @ self.lattice
        return 0.5 * (va + vb)

    def _build_edges(self):
        key_index = {}
        edges, eshifts, degree, etris = [], [], [], []
        tri_edges = np.empty((self.n_f, 3), dtype=np.intp)
        for f in range(self.n_f):
            tri = self.triangles[f]
            s = self.shifts[f]
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
        # renumber edges in sorted canonical-key order so dof numbering is
        # reproducible regardless of triangle ordering
        n_e = len(edges)
        order = sorted(range(n_e), key=lambda i: (edges[i][0], edges[i][1], eshifts[i]))
        rank = np.empty(n_e, dtype=np.intp)
        rank[order] = np.arange(n_e)
        self.edges = np.array([edges[i] for i in order], dtype=np.intp).reshape(n_e, 2)
        self.edge_shifts = np.array([eshifts[i] for i in order], dtype=np.intp).reshape(n_e, 2)
        self.edge_tris = np.array([etris[i] for i in order], dtype=np.intp).reshape(n_e, 2)
        self.edge_degree = np.array([degree[i] for i in order], dtype=np.intp)
        self.tri_edges = rank[tri_edges]


def build_equilateral_torus(n1, n2, dx):
    """Rhombic torus tiled with 2*n1*n2 equilateral triangles of side dx.

    The torus is spanned by n1*dx*(1,0) and n2*dx*(1/2, sqrt(3)/2); each
    rhombus cell is split along its short diagonal.
    """
    if n1 < 2 or n2 < 2:
        raise ValueError("need n1, n2 >= 2; smaller tori have degenerate periodic identification")
    if dx <= 0:
        raise ValueError("dx must be positive")
    e1 = np.array([1.0, 0.0])
    e2 = np.array([0.5, 0.5 * np.sqrt(3.0)])
    lattice = np.array([n1 * dx * e1, n2 * dx * e2])

    vertices = np.empty((n1 * n2, 2))
    for j in range(n2):
        for i in range(n1):
            vertices[i + n1 * j] = i * dx * e1 + j * dx * e2

    triangles = np.empty((2 * n1 * n2, 3), dtype=np.intp)
    shifts = np.zeros((2 * n1 * n2, 3, 2), dtype=np.intp)
    f = 0
    for j in range(n2):
        for i in range(n1):
            ip, jp = i + 1, j + 1
            si = 1 if ip == n1 else 0
            sj = 1 if jp == n2 else 0
            v00 = i + n1 * j
            v10 = (ip % n1) + n1 * j
            v01 = i + n1 * (jp % n2)
            v11 = (ip % n1) + n1 * (jp % n2)
            s00 = (0, 0)
            s10 = (si, 0)
            s01 = (0, sj)
            s11 = (si, sj)
            triangles[f] = (v00, v10, v01)
            shifts[f] = (s00, s10, s01)
            triangles[f + 1] = (v10, v11, v01)
            shifts[f + 1] = (s10, s11, s01)
            f += 2
    return Mesh(vertices, triangles, shifts, lattice)


def build_right_triangle_torus(nx, ny, Lx, Ly):
    """Rectangular torus [0,Lx) x [0,Ly), nx*ny cells split into right triangles."""
    if nx < 2 or ny < 2:
        raise ValueError("need nx, ny >= 2; smaller tori have degenerate periodic identification")
    if Lx <= 0 or Ly <= 0:
        raise ValueError("domain extents must be positive")
    hx, hy = Lx / nx, Ly / ny
    lattice = np.array([[Lx, 0.0], [0.0, Ly]])

    vertices = np.empty((nx * ny, 2))
    for j in range(ny):
        for i in range(nx):
            vertices[i + nx * j] = (i * hx, j * hy)

    triangles = np.empty((2 * nx * ny, 3), dtype=np.intp)
    shifts = np.zeros((2 * nx * ny, 3, 2), dtype=np.intp)
    f = 0
    for j in range(ny):
        for i in range(nx):
            ip, jp = i + 1, j + 1
            si = 1 if ip == nx else 0
            sj = 1 if jp == ny else 0
            v00 = i + nx * j
            v10 = (ip % nx) + nx * j
            v01 = i + nx * (jp % ny)
            v11 = (ip % nx) + nx * (jp % ny)
            triangles[f] = (v00, v10, v11)
            shifts[f] = ((0, 0), (si, 0), (si, sj))
            triangles[f + 1] = (v00, v11, v01)
            shifts[f + 1] = ((0, 0), (si, sj), (0, sj))
            f += 2
    return Mesh(vertices, triangles, shifts, lattice)


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


@dataclass
class MeshReport:
    checks: list

    @property
    def ok(self):
        return all(c.passed for c in self.checks)

    def __str__(self):
        lines = []
        for c in self.checks:
            status = "PASS" if c.passed else "FAIL"
            line = f"{status} {c.name}"
            if c.detail:
                line += f": {c.detail}"
            lines.append(line)
        return "\n".join(lines)


def validate(mesh):
    """Check every mesh invariant; returns a report, never raises."""
    checks = []

    areas = mesh.areas()
    bad = np.nonzero(areas <= 0)[0]
    detail = "; ".join(f"negative area at face {i}" for i in bad[:8])
    if len(bad) > 8:
        detail += f"; and {len(bad) - 8} more"
    checks.append(CheckResult("positive-areas", len(bad) == 0, detail))

    bad_edges = np.nonzero(mesh.edge_degree != 2)[0]
    detail = "; ".join(
        f"edge with {mesh.edge_degree[i]} adjacent face(s): edge {i}" for i in bad_edges[:8]
    )
    if len(bad_edges) > 8:
        detail += f"; and {len(bad_edges) - 8} more"
    checks.append(CheckResult("edge-adjacency", len(bad_edges) == 0, detail))

    euler = mesh.n_v - mesh.n_e + mesh.n_f
    checks.append(
        CheckResult(
            "euler-characteristic",
            euler == 0,
            "" if euler == 0 else f"n_v - n_e + n_f = {euler}, expected 0 on a torus",
        )
    )
    checks.append(
        CheckResult(
            "edge-face-count",
            2 * mesh.n_e == 3 * mesh.n_f,
            "" if 2 * mesh.n_e == 3 * mesh.n_f else f"2*n_e = {2 * mesh.n_e} != 3*n_f = {3 * mesh.n_f}",
        )
    )
    checks.append(
        CheckResult(
            "dof-count",
            mesh.n_v + mesh.n_e == 2 * mesh.n_f,
            "" if mesh.n_v + mesh.n_e == 2 * mesh.n_f else f"n_v + n_e = {mesh.n_v + mesh.n_e} != 2*n_f = {2 * mesh.n_f}",
        )
    )

    # Periodic wrap consistency: both face-side copies of an edge must be the
    # same segment up to one integer lattice translation, the same for both
    # endpoints.  This is what makes crossing the seam and coming back exact.
    corners = mesh.corner_coords()
    lat_inv = np.linalg.inv(mesh.lattice)
    bad_wrap = []
    scale = max(1.0, float(np.abs(mesh.lattice).max()))
    for ei in range(mesh.n_e):
        f0, f1 = mesh.edge_tris[ei]
        if f0 < 0 or f1 < 0:
            continue  # reported by edge-adjacency already
        seg = []
        for f in (f0, f1):
            loc = list(mesh.tri_edges[f]).index(ei)
            a, b = (loc + 1) % 3, (loc + 2) % 3
            va, vb = mesh.triangles[f, a], mesh.triangles[f, b]
            pa, pb = corners[f, a], corners[f, b]
            if va > vb or (va == vb and pa[0] > pb[0]):
                pa, pb = pb, pa
            seg.append((pa, pb))
        t0 = (seg[1][0] - seg[0][0]) @ lat_inv
        t1 = (seg[1][1] - seg[0][1]) @ lat_inv
        if (
            np.abs(t0 - np.round(t0)).max() > 1e-9
            or np.abs(t1 - np.round(t1)).max() > 1e-9
            or np.abs(t0 - t1).max() > 1e-9
        ):
            bad_wrap.append(ei)
        else:
            # the two copies must coincide geometrically after the translation
            delta = seg[1][0] - np.round(t0) @ mesh.lattice - seg[0][0]
            if np.abs(delta).max() > 1e-9 * scale:
                bad_wrap.append(ei)
    detail = "; ".join(f"inconsistent periodic shift at edge {i}" for i in bad_wrap[:8])
    checks.append(CheckResult("periodic-consistency", len(bad_wrap) == 0, detail))

    return MeshReport(checks)


def reciprocal_wavevector(mesh, m1, m2):
    """Wave vector with k . a_i = 2 pi m_i; the torus-compatible lattice of modes."""
    return np.linalg.solve(mesh.lattice, 2.0 * np.pi * np.array([m1, m2], dtype=float))


def write_mesh(mesh, path):
    """Plain-text mesh format; see read_mesh for the layout."""
    with open(path, "w") as fh:
        fh.write("# periodic triangulation\n")
        fh.write(f"{mesh.n_v} {mesh.n_f}\n")
        for x, y in mesh.vertices:
            fh.write(f"{x:.17g} {y:.17g}\n")
        for f in range(mesh.n_f):
            i, j, k = mesh.triangles[f]
            s = mesh.shifts[f]
            fh.write(
                f"{i} {j} {k} {s[0, 0]} {s[0, 1]} {s[1, 0]} {s[1, 1]} {s[2, 0]} {s[2, 1]}\n"
            )
        for row in mesh.lattice:
            fh.write(f"{row[0]:.17g} {row[1]:.17g}\n")


def _token_lines(path):
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if line:
                yield lineno, line.split()


def read_mesh(path):
    """Read the plain-text format written by write_mesh.

    Layout: one line "n_v n_f"; n_v vertex lines "x y"; n_f face lines
    "i j k sx1 sy1 sx2 sy2 sx3 sy3" (shifts in lattice units); two lattice
    generator lines.  '#' starts a comment.
    """
    lines = _token_lines(path)

    def next_line(what):
        try:
            return next(lines)
        except StopIteration:
            raise MeshFormatError(0, f"unexpected end of file, expected {what}") from None

    lineno, toks = next_line("header 'n_v n_f'")
    if len(toks) != 2:
        raise MeshFormatError(lineno, f"expected 'n_v n_f', got {len(toks)} fields")
    try:
        n_v, n_f = int(toks[0]), int(toks[1])
    except ValueError:
        raise MeshFormatError(lineno, "header fields must be integers") from None
    if n_v <= 0 or n_f <= 0:
        raise MeshFormatError(lineno, "n_v and n_f must be positive")

    vertices = np.empty((n_v, 2))
    for r in range(n_v):
        lineno, toks = next_line(f"vertex {r}")
        if len(toks) != 2:
            raise MeshFormatError(lineno, f"vertex line needs 2 fields, got {len(toks)}")
        try:
            vertices[r] = (float(toks[0]), float(toks[1]))
        except ValueError:
            raise MeshFormatError(lineno, "vertex coordinates must be numbers") from None

    triangles = np.empty((n_f, 3), dtype=np.intp)
    shifts = np.empty((n_f, 3, 2), dtype=np.intp)
    for r in range(n_f):
        lineno, toks = next_line(f"face {r}")
        if len(toks) != 9:
            raise MeshFormatError(lineno, f"face line needs 9 fields, got {len(toks)}")
        try:
            vals = [int(round(float(t))) for t in toks]
        except ValueError:
            raise MeshFormatError(lineno, "face fields must be numbers") from None
        triangles[r] = vals[:3]
        shifts[r] = np.array(vals[3:], dtype=np.intp).reshape(3, 2)
        if min(vals[:3]) < 0 or max(vals[:3]) >= n_v:
            raise MeshFormatError(lineno, f"vertex index out of range 0..{n_v - 1}")

    lattice = np.empty((2, 2))
    for r in range(2):
        lineno, toks = next_line(f"lattice vector {r}")
        if len(toks) != 2:
            raise MeshFormatError(lineno, f"lattice line needs 2 fields, got {len(toks)}")
        try:
            lattice[r] = (float(toks[0]), float(toks[1]))
        except ValueError:
            raise MeshFormatError(lineno, "lattice components must be numbers") from None

    return Mesh(vertices, triangles, shifts, lattice)
