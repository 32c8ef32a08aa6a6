"""Doubly-periodic planar triangulations.

A mesh lives on a torus spanned by two lattice vectors (the rows of
``lattice``).  Vertex coordinates are stored once, inside the fundamental
cell; every triangle corner additionally carries an integer shift, in
lattice units, so that

    corner = vertices[triangles[f, c]] + shifts[f, c] @ lattice

is geometrically contiguous even when the triangle wraps around the seam.
Edges are derived from the triangles, and one canonical key decides both
their identity and their orientation.  The side of face f opposite corner e
runs from corner a = e+1 to corner b = e+2 (mod 3) and has the key

    (va, vb, d) = (triangles[f, a], triangles[f, b], shifts[f, b] - shifts[f, a]),

flipped to (vb, va, -d) when va > vb, or when va == vb and d < -d in
lexicographic order.  The shift difference d keeps parallel edges and
self-loops on small tori distinct.  Two sides are the same edge exactly when
their keys agree, edges are numbered in sorted key order (so dof numbering
does not depend on the order of the triangles), and an edge runs from
vertex va to vertex vb + d @ lattice.
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
        keys = _side_keys(self.triangles, self.shifts)[0].reshape(-1, 4)
        # one int64 per key, in the same lexicographic order, so that unique
        # sorts plain integers instead of (n, 4) rows
        lo = keys.min(axis=0, initial=0)
        span = keys.max(axis=0, initial=0) - lo + 1
        if np.prod(span.astype(float)) >= 2.0 ** 63:
            raise ValueError("side keys do not fit in one int64")
        packed = (((keys[:, 0] - lo[0]) * span[1] + keys[:, 1] - lo[1]) * span[2]
                  + keys[:, 2] - lo[2]) * span[3] + keys[:, 3] - lo[3]
        _, first, inverse = np.unique(packed, return_index=True, return_inverse=True)
        uniq = keys[first]
        n_e = len(uniq)
        self.edges = np.ascontiguousarray(uniq[:, :2])
        self.edge_shifts = np.ascontiguousarray(uniq[:, 2:])
        self.tri_edges = inverse.reshape(self.n_f, 3)
        self.edge_degree = np.bincount(inverse, minlength=n_e)
        # sides grouped by edge, each group in face order; its first two faces
        sides = np.argsort(inverse, kind="stable")
        first = np.cumsum(self.edge_degree) - self.edge_degree
        self.edge_tris = np.full((n_e, 2), -1, dtype=np.intp)
        self.edge_tris[:, 0] = sides[first] // 3
        two = self.edge_degree >= 2
        self.edge_tris[two, 1] = sides[first[two] + 1] // 3


def _side_keys(triangles, shifts):
    """Canonical key (va, vb, d0, d1) of each face side, (n_f, 3, 4), and where it was flipped.

    Side e of a face runs from local corner e+1 to e+2 (mod 3), so it lies
    opposite corner e.
    """
    a, b = [1, 2, 0], [2, 0, 1]
    va, vb = triangles[:, a], triangles[:, b]
    d = shifts[:, b] - shifts[:, a]
    flip = (va > vb) | (
        (va == vb) & ((d[..., 0] < 0) | ((d[..., 0] == 0) & (d[..., 1] < 0)))
    )
    keys = np.concatenate([va[..., None], vb[..., None], d], axis=-1)
    flipped = np.concatenate([vb[..., None], va[..., None], -d], axis=-1)
    return np.where(flip[..., None], flipped, keys), flip


def _cell_torus(n1, n2, steps, lengths, axes, split):
    """Torus of n1*n2 parallelogram cells, each split into two triangles.

    Vertex i + n1*j sits at (i*steps[0])*axes[0] + (j*steps[1])*axes[1],
    products taken in that order so that coordinates round the same way
    for every caller; the lattice rows are lengths[k]*axes[k].  ``split`` lists the two faces
    of a cell as indices into its corners (00, 10, 01, 11); cell i + n1*j
    owns faces 2*(i + n1*j) and 2*(i + n1*j) + 1.
    """
    axes = np.asarray(axes, dtype=float)
    lattice = np.asarray(lengths, dtype=float)[:, None] * axes
    j, i = np.divmod(np.arange(n1 * n2), n1)
    vertices = np.outer(i * steps[0], axes[0]) + np.outer(j * steps[1], axes[1])

    # cell corners 00, 10, 01, 11, unwrapped; a corner past the seam wraps
    # to vertex 0 of its row or column and carries a shift of one period
    ci = i[:, None] + np.array([0, 1, 0, 1])
    cj = j[:, None] + np.array([0, 0, 1, 1])
    corners = ci % n1 + n1 * (cj % n2)
    corner_shifts = np.stack([ci // n1, cj // n2], axis=-1)
    triangles = corners[:, split].reshape(-1, 3)
    shifts = corner_shifts[:, split].reshape(-1, 3, 2)
    return Mesh(vertices, triangles, shifts, lattice)


def build_equilateral_torus(n1, n2, dx):
    """Rhombic torus tiled with 2*n1*n2 equilateral triangles of side dx.

    The torus is spanned by n1*dx*(1,0) and n2*dx*(1/2, sqrt(3)/2); each
    rhombus cell is split along its short diagonal.
    """
    if n1 < 2 or n2 < 2:
        raise ValueError("need n1, n2 >= 2; smaller tori have degenerate periodic identification")
    if dx <= 0:
        raise ValueError("dx must be positive")
    axes = [[1.0, 0.0], [0.5, 0.5 * np.sqrt(3.0)]]
    # split along the short diagonal, corner 10 to corner 01
    return _cell_torus(n1, n2, (dx, dx), (n1 * dx, n2 * dx), axes, [[0, 1, 2], [1, 3, 2]])


def build_right_triangle_torus(nx, ny, Lx, Ly):
    """Rectangular torus [0,Lx) x [0,Ly), nx*ny cells split into right triangles."""
    if nx < 2 or ny < 2:
        raise ValueError("need nx, ny >= 2; smaller tori have degenerate periodic identification")
    if Lx <= 0 or Ly <= 0:
        raise ValueError("domain extents must be positive")
    axes = [[1.0, 0.0], [0.0, 1.0]]
    # split along the diagonal from corner 00 to corner 11
    return _cell_torus(nx, ny, (Lx / nx, Ly / ny), (Lx, Ly), axes, [[0, 1, 3], [0, 3, 2]])


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

    # Periodic wrap consistency: both face-side copies of an edge, oriented
    # by its canonical key, must be the same segment up to one integer
    # lattice translation, the same for both endpoints.  This is what makes
    # crossing the seam and coming back exact.
    corners = mesh.corner_coords()
    _, flip = _side_keys(mesh.triangles, mesh.shifts)
    lat_inv = np.linalg.inv(mesh.lattice)
    scale = max(1.0, float(np.abs(mesh.lattice).max()))
    paired = np.nonzero(mesh.edge_degree >= 2)[0]  # the rest fail edge-adjacency already
    f = mesh.edge_tris[paired]  # (m, 2): the two copies
    loc = np.argmax(mesh.tri_edges[f] == paired[:, None, None], axis=2)
    flipped = flip[f, loc]
    start = corners[f, np.where(flipped, loc + 2, loc + 1) % 3]
    end = corners[f, np.where(flipped, loc + 1, loc + 2) % 3]
    t0 = (start[:, 1] - start[:, 0]) @ lat_inv
    t1 = (end[:, 1] - end[:, 0]) @ lat_inv
    delta = start[:, 1] - np.round(t0) @ mesh.lattice - start[:, 0]
    wrong = (
        (np.abs(t0 - np.round(t0)).max(axis=1) > 1e-9)
        | (np.abs(t1 - np.round(t1)).max(axis=1) > 1e-9)
        | (np.abs(t0 - t1).max(axis=1) > 1e-9)
        | (np.abs(delta).max(axis=1) > 1e-9 * scale)
    )
    bad_wrap = paired[wrong]
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
