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
vertex va to vertex vb + d @ lattice.  The derived topology is what the
assembly and ``validate`` read: the edges with their shift deltas, the three
edges of each face, and the number of face sides that meet each edge.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import FormatError, ParameterError

__all__ = [
    "Mesh",
    "MeshReport",
    "build_equilateral_torus",
    "build_right_triangle_torus",
    "validate",
    "read_mesh",
    "write_mesh",
    "reciprocal_wavevector",
]


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
    edge_degree: np.ndarray = field(init=False)  # (n_e,), number of adjacent face sides
    # per-mesh results of other modules (operators, steppers); freed with the mesh
    cache: dict = field(init=False, repr=False, default_factory=dict)

    def __post_init__(self):
        self.vertices = np.ascontiguousarray(self.vertices, dtype=float)
        self.triangles = np.ascontiguousarray(self.triangles, dtype=np.intp)
        self.shifts = np.ascontiguousarray(self.shifts, dtype=np.intp)
        self.lattice = np.ascontiguousarray(self.lattice, dtype=float)
        if self.vertices.ndim != 2 or self.vertices.shape[1] != 2:
            raise ParameterError("vertices must be an (n_v, 2) array")
        if self.triangles.ndim != 2 or self.triangles.shape[1] != 3:
            raise ParameterError("triangles must be an (n_f, 3) array")
        if self.shifts.shape != (*self.triangles.shape, 2):
            raise ParameterError("shifts must be an (n_f, 3, 2) array")
        if self.lattice.shape != (2, 2):
            raise ParameterError("lattice must be a 2x2 array")
        if self.triangles.size and (
            self.triangles.min() < 0 or self.triangles.max() >= len(self.vertices)
        ):
            raise ParameterError("triangle vertex index out of range")
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
        keys = _side_keys(self.triangles, self.shifts).reshape(-1, 4)
        # one int64 per key, in the same lexicographic order, so that unique
        # sorts plain integers instead of (n, 4) rows
        lo = keys.min(axis=0, initial=0)
        span = keys.max(axis=0, initial=0) - lo + 1
        if np.prod(span.astype(float)) >= 2.0 ** 63:
            raise ParameterError("side keys do not fit in one int64")
        packed = (((keys[:, 0] - lo[0]) * span[1] + keys[:, 1] - lo[1]) * span[2]
                  + keys[:, 2] - lo[2]) * span[3] + keys[:, 3] - lo[3]
        _, first, inverse = np.unique(packed, return_index=True, return_inverse=True)
        uniq = keys[first]
        self.edges = np.ascontiguousarray(uniq[:, :2])
        self.edge_shifts = np.ascontiguousarray(uniq[:, 2:])
        self.tri_edges = inverse.reshape(self.n_f, 3)
        self.edge_degree = np.bincount(inverse, minlength=len(uniq))


def _side_keys(triangles, shifts):
    """Canonical key (va, vb, d0, d1) of each face side, (n_f, 3, 4).

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
    return np.where(flip[..., None], flipped, keys)


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
        raise ParameterError("need n1, n2 >= 2; smaller tori have degenerate periodic identification")
    if dx <= 0:
        raise ParameterError("dx must be positive")
    return _equilateral_cells(n1, n2, dx)


def _equilateral_cells(n1, n2, dx):
    """build_equilateral_torus without its checks; the 1x1 torus is the one
    periodic cell of the lattice, with one vertex and three self-loop edges."""
    axes = [[1.0, 0.0], [0.5, 0.5 * np.sqrt(3.0)]]
    # split along the short diagonal, corner 10 to corner 01
    return _cell_torus(n1, n2, (dx, dx), (n1 * dx, n2 * dx), axes, [[0, 1, 2], [1, 3, 2]])


def build_right_triangle_torus(nx, ny, Lx, Ly):
    """Rectangular torus [0,Lx) x [0,Ly), nx*ny cells split into right triangles."""
    if nx < 2 or ny < 2:
        raise ParameterError("need nx, ny >= 2; smaller tori have degenerate periodic identification")
    if Lx <= 0 or Ly <= 0:
        raise ParameterError("domain extents must be positive")
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

    # an infinite coordinate gives 0 * inf, a nan area reported below
    with np.errstate(invalid="ignore"):
        areas = mesh.areas()
    # not areas <= 0, which is false for nan
    bad = np.nonzero(~((areas > 0) & np.isfinite(areas)))[0]
    detail = "; ".join(f"face {i} is not counter-clockwise" if np.isfinite(areas[i])
                       else f"face {i} has area {areas[i]}" for i in bad[:8])
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

    # with every edge degree 2, the degrees' sum 3 n_f is 2 n_e, and then
    # Euler's n_v - n_e + n_f = 0 gives the P2 dof count n_v + n_e = 2 n_f
    euler = mesh.n_v - mesh.n_e + mesh.n_f
    checks.append(
        CheckResult(
            "euler-characteristic",
            euler == 0,
            "" if euler == 0 else f"n_v - n_e + n_f = {euler}, expected 0 on a torus",
        )
    )

    return MeshReport(checks)


def reciprocal_wavevector(mesh, m1, m2):
    """Wave vector with k . a_i = 2 pi m_i; the torus-compatible lattice of modes."""
    return np.linalg.solve(mesh.lattice, 2.0 * np.pi * np.array([m1, m2], dtype=float))


def _format_rows(fmt, *columns):
    """One ``fmt.format(*row)`` per row of the equal-length columns, joined."""
    return "".join(map(fmt.format, *(np.asarray(c).tolist() for c in columns)))


def _read_block(rows, count, width, path, what):
    """The ``count`` lines of one numeric block of file ``path`` as a (count, width) float array.

    ``rows`` holds (lineno, fields) pairs, fewer than ``count`` when the file
    ended early; ``fields`` is a line's list of fields, or the whole line when
    it holds one number.  Raises ``FormatError`` at the first line with other
    than ``width`` fields, a field that is not a number or one that is not
    finite, and at line 0 for a file that ended early.
    """
    try:
        values = np.array([fields for _, fields in rows], dtype=float).reshape(count, width)
        if np.isfinite(values).all():
            return values
    except ValueError:
        pass
    for lineno, fields in rows:
        if isinstance(fields, str):
            fields = [fields]
        if len(fields) != width:
            raise FormatError(path, lineno, f"{what} line needs {width} fields, got {len(fields)}")
        for text in fields:
            try:
                value = float(text)
            except ValueError:
                raise FormatError(path, lineno, f"{what} field {text!r} is not a number") from None
            if not np.isfinite(value):
                raise FormatError(path, lineno, f"{what} field {text!r} is not finite")
    raise FormatError(path, 0, f"unexpected end of file after {len(rows)} of {count} {what} lines")


def write_mesh(mesh, path):
    """Plain-text mesh format; see read_mesh for the layout."""
    faces = np.concatenate([mesh.triangles, mesh.shifts.reshape(-1, 6)], axis=1)
    with open(path, "w") as fh:
        fh.write(f"# periodic triangulation\n{mesh.n_v} {mesh.n_f}\n")
        fh.write(_format_rows("{:.17g} {:.17g}\n", *mesh.vertices.T))
        fh.write(_format_rows("{} {} {} {} {} {} {} {} {}\n", *faces.T))
        fh.write(_format_rows("{:.17g} {:.17g}\n", *mesh.lattice.T))


def read_mesh(path):
    """Read the plain-text format written by write_mesh.

    Layout: one line "n_v n_f"; n_v vertex lines "x y"; n_f face lines
    "i j k sx1 sy1 sx2 sy2 sx3 sy3" (shifts in lattice units); two lattice
    generator lines.  '#' starts a comment.  Every field is a finite number,
    and the face fields are integers (3.0 is 3) of magnitude at most 2**53,
    with the vertex indices i, j, k in 0 .. n_v - 1.  A file that breaks
    these rules raises ``swelab.FormatError`` at its first bad line; faces
    that ``Mesh`` rejects as a whole are reported at the first face line.
    """
    with open(path) as fh:
        rows = [(lineno, fields) for lineno, raw in enumerate(fh, start=1)
                if (fields := raw.split("#", 1)[0].split())]
    if not rows:
        raise FormatError(path, 0, "unexpected end of file, expected header 'n_v n_f'")
    lineno, fields = rows[0]
    if len(fields) != 2:
        raise FormatError(path, lineno, f"expected 'n_v n_f', got {len(fields)} fields")
    try:
        n_v, n_f = int(fields[0]), int(fields[1])
    except ValueError:
        raise FormatError(path, lineno, "header fields must be integers") from None
    if n_v <= 0 or n_f <= 0:
        raise FormatError(path, lineno, "n_v and n_f must be positive")

    vertices = _read_block(rows[1:1 + n_v], n_v, 2, path, "vertex")
    face_rows = rows[1 + n_v:1 + n_v + n_f]
    faces = _read_block(face_rows, n_f, 9, path, "face")
    # integers a double holds exactly, so that the cast to intp is exact
    bad = ((faces != np.round(faces)) | (np.abs(faces) > 2.0 ** 53)).any(axis=1)
    bad |= ((faces[:, :3] < 0) | (faces[:, :3] >= n_v)).any(axis=1)
    if bad.any():
        raise FormatError(path, face_rows[np.argmax(bad)][0],
                          f"face fields must be integers, vertex indices in 0..{n_v - 1}")
    faces = faces.astype(np.intp)
    lattice = _read_block(rows[1 + n_v + n_f:3 + n_v + n_f], 2, 2, path, "lattice")
    try:
        return Mesh(vertices, faces[:, :3], faces[:, 3:].reshape(n_f, 3, 2), lattice)
    except ParameterError as exc:
        raise FormatError(path, face_rows[0][0], str(exc)) from None
