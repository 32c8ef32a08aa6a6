import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swelab import FormatError, ParameterError
from swelab.mesh import (
    CheckResult,
    Mesh,
    MeshReport,
    build_equilateral_torus,
    build_right_triangle_torus,
    read_mesh,
    reciprocal_wavevector,
    validate,
    write_mesh,
)

from .oracles import edge_topology

TOPOLOGY = ("edges", "edge_shifts", "tri_edges", "edge_degree")


def assert_topology_matches_reference(mesh):
    for name, ref in zip(TOPOLOGY, edge_topology(mesh.triangles, mesh.shifts)):
        got = getattr(mesh, name)
        assert got.dtype == ref.dtype and np.array_equal(got, ref), name


@pytest.mark.parametrize("n1,n2", [(2, 2), (3, 4), (5, 2)])
def test_equilateral_counts_and_euler(n1, n2):
    m = build_equilateral_torus(n1, n2, 0.7)
    assert m.n_v == n1 * n2
    assert m.n_f == 2 * n1 * n2
    assert m.n_e == 3 * n1 * n2
    assert m.n_v - m.n_e + m.n_f == 0
    assert np.all(m.edge_degree == 2)


@pytest.mark.parametrize("nx,ny", [(2, 2), (2, 3), (4, 5)])
def test_right_counts_and_euler(nx, ny):
    m = build_right_triangle_torus(nx, ny, 1.0, 2.0)
    assert m.n_v == nx * ny
    assert m.n_f == 2 * nx * ny
    assert m.n_e == 3 * nx * ny
    assert m.n_v - m.n_e + m.n_f == 0


def test_equilateral_geometry():
    dx = 0.31
    m = build_equilateral_torus(3, 5, dx)
    x = m.corner_coords()
    for e in range(3):
        lengths = np.linalg.norm(x[:, (e + 1) % 3] - x[:, (e + 2) % 3], axis=1)
        assert np.allclose(lengths, dx, rtol=1e-13)
    assert np.allclose(m.areas(), np.sqrt(3) / 4 * dx * dx, rtol=1e-13)
    assert np.isclose(m.areas().sum(), m.domain_area, rtol=1e-13)


def test_right_geometry_positive_areas():
    m = build_right_triangle_torus(3, 4, 1.5, 1.0)
    assert np.all(m.areas() > 0)
    assert np.isclose(m.areas().sum(), 1.5, rtol=1e-13)


VALID_TORI = [build_equilateral_torus(2, 2, 1.0), build_equilateral_torus(4, 3, 0.5),
              build_right_triangle_torus(2, 2, 1.0, 1.0),
              build_right_triangle_torus(3, 5, 2.0, 1.0)]


@pytest.mark.parametrize("mesh", VALID_TORI)
def test_validate_passes(mesh):
    report = validate(mesh)
    assert report.ok, str(report)


def _clockwise_face():
    m = build_right_triangle_torus(2, 2, 1.0, 1.0)
    tris = m.triangles.copy()
    tris[0] = tris[0][::-1]
    shifts = m.shifts.copy()
    shifts[0] = shifts[0][::-1]
    return Mesh(m.vertices.copy(), tris, shifts, m.lattice.copy())


def test_validate_catches_clockwise_triangle():
    report = validate(_clockwise_face())
    assert not report.ok
    assert any("positive-areas" == c.name and not c.passed for c in report.checks)


NOT_FINITE = ["vertex", "lattice", "vertex inf", "vertex -inf"]


def _not_finite(where):
    """The 2 x 2 right torus with one vertex or lattice coordinate nan or +-inf."""
    m = build_right_triangle_torus(2, 2, 1.0, 1.0)
    vertices, lattice = m.vertices.copy(), m.lattice.copy()
    value = {"inf": np.inf, "-inf": -np.inf}.get(where.split()[-1], np.nan)
    (vertices if where.startswith("vertex") else lattice)[0, 1] = value
    return Mesh(vertices, m.triangles, m.shifts, lattice)


@pytest.mark.parametrize("where", NOT_FINITE)
def test_validate_flags_areas_that_are_not_finite(where):
    # areas <= 0 is false for nan, so a nan coordinate would pass a sign
    # test; an inf one makes 0 * inf, which must be reported, not warned of
    report = validate(_not_finite(where))
    areas = next(c for c in report.checks if c.name == "positive-areas")
    assert not areas.passed and "face 0 has area nan" in areas.detail
    # an infinite area is not finite, whatever its sign: faces 2, 5 and 6
    # get -inf, inf, inf from y = inf and the opposite signs from y = -inf
    assert "counter-clockwise" not in areas.detail
    if where == "vertex -inf":
        assert "face 5 has area -inf" in areas.detail


def test_mesh_report_prints_one_line_per_check():
    report = MeshReport([CheckResult("a", True), CheckResult("b", False, "face 3 is bad")])
    assert str(report) == "PASS a\nFAIL b: face 3 is bad"
    assert not report.ok


def _shift_corner(m):
    shifts = m.shifts.copy()
    shifts[0, 1, 0] += 1
    return m.triangles, shifts


DANGLING = [
    # both sides at the shifted corner become new one-face edges, and
    # the two edges they belonged to keep one face each
    pytest.param(_shift_corner, [1, 1, 1, 1], id="shifted-corner"),
    # the three sides of the dropped face are left with one face each
    pytest.param(lambda m: (m.triangles[:-1], m.shifts[:-1]), [1, 1, 1], id="dropped-face"),
    pytest.param(lambda m: (np.vstack([m.triangles, m.triangles[:1]]),
                            np.concatenate([m.shifts, m.shifts[:1]])), [3, 3, 3],
                 id="duplicated-face"),
]


def _dangling(corrupt):
    m = build_right_triangle_torus(2, 2, 1.0, 1.0)
    return Mesh(m.vertices, *corrupt(m), m.lattice)


@pytest.mark.parametrize("corrupt,odd_degrees", DANGLING)
def test_validate_catches_dangling_edge(corrupt, odd_degrees):
    bad = _dangling(corrupt)
    report = validate(bad)
    assert not report.ok
    assert any(c.name == "edge-adjacency" and not c.passed for c in report.checks)
    assert sorted(bad.edge_degree[bad.edge_degree != 2].tolist()) == odd_degrees
    # the edges met by one face side, counted from the faces' edge lists
    met_once = np.bincount(bad.tri_edges.ravel(), minlength=bad.n_e) == 1
    assert np.count_nonzero(met_once) == odd_degrees.count(1)
    assert_topology_matches_reference(bad)


def _self_loop_torus():
    # 3 x 1 right-triangle torus: every vertical edge joins a vertex to its
    # own copy one period up, so both copies of it are self-loops
    triangles = [[0, 1, 1], [0, 1, 0], [1, 2, 2], [1, 2, 1], [2, 0, 0], [2, 0, 2]]
    shifts = [[(0, 0), (0, 0), (0, 1)], [(0, 0), (0, 1), (0, 1)]] * 2 + [
        [(0, 0), (1, 0), (1, 1)], [(0, 0), (1, 1), (0, 1)]]
    return Mesh([[0.0, 0.0], [1 / 3, 0.0], [2 / 3, 0.0]], triangles, shifts, np.eye(2))


def test_validate_passes_on_self_loop_torus():
    mesh = _self_loop_torus()
    loops = np.nonzero(mesh.edges[:, 0] == mesh.edges[:, 1])[0]
    assert loops.tolist() == [0, 5, 8]
    assert mesh.edge_shifts[loops].tolist() == [[0, 1]] * 3
    assert_topology_matches_reference(mesh)
    report = validate(mesh)
    assert report.ok, str(report)


def _five_conditions(mesh):
    """Finite positive areas, two face sides at every edge, Euler
    characteristic 0, 2 n_e = 3 n_f and n_v + n_e = 2 n_f."""
    with np.errstate(invalid="ignore"):
        areas = mesh.areas()
    return bool(np.all(np.isfinite(areas) & (areas > 0)) and np.all(mesh.edge_degree == 2)
                and mesh.n_v - mesh.n_e + mesh.n_f == 0 and 2 * mesh.n_e == 3 * mesh.n_f
                and mesh.n_v + mesh.n_e == 2 * mesh.n_f)


@pytest.mark.parametrize("mesh", [
    *(pytest.param(m, id=f"valid-{i}") for i, m in enumerate(VALID_TORI)),
    pytest.param(_self_loop_torus(), id="self-loop"),
    pytest.param(_clockwise_face(), id="clockwise"),
    *(pytest.param(_not_finite(w), id=w) for w in NOT_FINITE),
    *(pytest.param(_dangling(p.values[0]), id=p.id) for p in DANGLING),
])
def test_validate_verdict_is_that_of_the_five_conditions(mesh):
    # validate checks three of them: with every edge of degree 2 the degrees
    # sum 3 n_f to 2 n_e, and Euler then gives n_v + n_e = 2 n_f
    assert [c.name for c in validate(mesh).checks] == [
        "positive-areas", "edge-adjacency", "euler-characteristic"]
    assert validate(mesh).ok == _five_conditions(mesh)


@pytest.mark.parametrize("m1,m2", [(1, 0), (0, 1), (2, -3), (5, 5)])
def test_reciprocal_wavevector(m1, m2):
    for mesh in (build_equilateral_torus(3, 4, 0.25), build_right_triangle_torus(4, 2, 2.0, 3.0)):
        k = reciprocal_wavevector(mesh, m1, m2)
        phases = mesh.lattice @ k / (2 * np.pi)
        assert np.allclose(phases, [m1, m2], atol=1e-12)


def test_edge_numbering_is_sorted_canonical():
    m = build_equilateral_torus(3, 3, 1.0)
    keys = [tuple(m.edges[i]) + tuple(m.edge_shifts[i]) for i in range(m.n_e)]
    assert keys == sorted(keys)


def test_tri_edges_opposite_vertex():
    m = build_right_triangle_torus(3, 3, 1.0, 1.0)
    x = m.corner_coords()
    mids = m.edge_midpoints()
    lat_inv = np.linalg.inv(m.lattice)
    for f in range(m.n_f):
        for e in range(3):
            a, b = (e + 1) % 3, (e + 2) % 3
            mid = 0.5 * (x[f, a] + x[f, b])
            # the canonical midpoint agrees up to a lattice translation
            d = (mid - mids[m.tri_edges[f, e]]) @ lat_inv
            assert np.max(np.abs(d - np.round(d))) < 1e-9


def test_write_read_roundtrip(tmp_path):
    for mesh in (build_equilateral_torus(3, 2, 0.5), build_right_triangle_torus(2, 4, 1.0, 2.0)):
        p = tmp_path / "m.txt"
        write_mesh(mesh, p)
        back = read_mesh(p)
        assert np.array_equal(back.triangles, mesh.triangles)
        assert np.array_equal(back.shifts, mesh.shifts)
        assert np.array_equal(back.vertices, mesh.vertices)  # %.17g is lossless
        assert np.array_equal(back.lattice, mesh.lattice)
        assert np.array_equal(back.edges, mesh.edges)


def test_write_mesh_matches_the_line_by_line_layout(tmp_path):
    m = build_equilateral_torus(5, 3, 0.37)
    write_mesh(m, tmp_path / "m.txt")
    want = ["# periodic triangulation", f"{m.n_v} {m.n_f}"]
    want += [f"{x:.17g} {y:.17g}" for x, y in m.vertices]
    want += [" ".join(str(v) for v in (*m.triangles[f], *m.shifts[f].ravel())) for f in range(m.n_f)]
    want += [f"{x:.17g} {y:.17g}" for x, y in m.lattice]
    assert (tmp_path / "m.txt").read_text() == "\n".join(want) + "\n"


def test_read_mesh_reports_line_numbers(tmp_path):
    m = build_right_triangle_torus(2, 2, 1.0, 1.0)
    p = tmp_path / "m.txt"
    write_mesh(m, p)
    text = p.read_text().splitlines()

    corrupted = text.copy()
    corrupted[3] = "0.1 not-a-number"
    (tmp_path / "bad1.txt").write_text("\n".join(corrupted) + "\n")
    with pytest.raises(FormatError) as exc:
        read_mesh(tmp_path / "bad1.txt")
    assert exc.value.lineno == 4

    # a file that ends early reports line 0
    truncated = text[:5]
    (tmp_path / "bad2.txt").write_text("\n".join(truncated) + "\n")
    with pytest.raises(FormatError) as exc:
        read_mesh(tmp_path / "bad2.txt")
    assert exc.value.lineno == 0

    (tmp_path / "bad3.txt").write_text("# only a comment\n")
    with pytest.raises(FormatError) as exc:
        read_mesh(tmp_path / "bad3.txt")
    assert exc.value.lineno == 0


# the 2 x 2 right torus as write_mesh lays it out: line 1 a comment, line 2
# the header "4 8", lines 3-6 the vertices, 7-14 the faces, 15-16 the lattice
@pytest.mark.parametrize("lineno, text, message", [
    (2, "4", "'n_v n_f'"),
    (2, "4 eight", "integers"),
    (2, "4 0", "positive"),
    (3, "0", "needs 2 fields, got 1"),
    (4, "0.5 zero", "'zero' is not a number"),
    (5, "nan 0.5", "'nan' is not finite"),
    (7, "0 1 3 0 0 0 0 0", "needs 9 fields, got 8"),
    (8, "0 3 2 0 0 0 0 0 inf", "'inf' is not finite"),
    (8, "0 3 2 0 0 0 0 0 1e30", "integers"),
    (9, "1 2.5 3 0 0 0 0 0 0", "integers"),
    (10, "1 3 4 0 0 0 0 0 0", "vertex indices in 0..3"),
    (11, "2 3 -1 0 0 0 0 0 0", "vertex indices in 0..3"),
    (15, "2 0 0", "needs 2 fields, got 3"),
    (16, "0 nan", "'nan' is not finite"),
])
def test_read_mesh_rejects_malformed_lines(tmp_path, lineno, text, message):
    write_mesh(build_right_triangle_torus(2, 2, 1.0, 1.0), tmp_path / "m.txt")
    lines = (tmp_path / "m.txt").read_text().splitlines()
    assert len(lines) == 16 and lines[1] == "4 8"
    lines[lineno - 1] = text
    (tmp_path / "bad.txt").write_text("\n".join(lines) + "\n")
    with pytest.raises(FormatError, match=message) as exc:
        read_mesh(tmp_path / "bad.txt")
    assert exc.value.lineno == lineno and exc.value.path == tmp_path / "bad.txt"
    assert str(exc.value).startswith(f"{tmp_path / 'bad.txt'}: line {lineno}: ")


def test_read_mesh_reports_faces_mesh_rejects_as_a_format_error(tmp_path):
    # face 0 with two shifts of 2**52, integers the format takes, whose side
    # keys span more than one int64: Mesh raises ParameterError on them
    write_mesh(build_right_triangle_torus(2, 2, 1.0, 1.0), tmp_path / "m.txt")
    lines = (tmp_path / "m.txt").read_text().splitlines()
    lines[6] = f"0 1 3 0 0 {2 ** 52} 0 0 {2 ** 52}"
    (tmp_path / "bad.txt").write_text("\n".join(lines) + "\n")
    with pytest.raises(FormatError, match="side keys do not fit in one int64") as exc:
        read_mesh(tmp_path / "bad.txt")
    assert not isinstance(exc.value, ParameterError)
    assert exc.value.path == tmp_path / "bad.txt" and exc.value.lineno == 7


def test_read_mesh_takes_integral_floats_and_reports_the_first_bad_line(tmp_path):
    mesh = build_right_triangle_torus(2, 2, 1.0, 1.0)
    write_mesh(mesh, tmp_path / "m.txt")
    lines = (tmp_path / "m.txt").read_text().splitlines()
    # face fields written as floats, and a comment line that shifts the rest
    lines[6] = " ".join(f"{int(v)}.0" for v in lines[6].split()) + "  # face 0"
    lines.insert(7, "# the other faces")
    (tmp_path / "ok.txt").write_text("\n".join(lines) + "\n")
    back = read_mesh(tmp_path / "ok.txt")
    assert np.array_equal(back.triangles, mesh.triangles)
    assert np.array_equal(back.shifts, mesh.shifts)

    def first_error(edits):
        bad = lines.copy()
        for row, text in edits.items():
            bad[row] = text
        (tmp_path / "bad.txt").write_text("\n".join(bad) + "\n")
        with pytest.raises(FormatError) as exc:
            read_mesh(tmp_path / "bad.txt")
        return exc.value

    # the first bad line is reported, whichever check finds it; line 9 holds
    # face 1, below the inserted comment
    face = lines[8].replace("0", "1.5", 1)
    assert first_error({2: "nan 0", 4: "0.5", 8: face}).lineno == 3
    assert first_error({4: "0.5", 8: face}).lineno == 5
    assert first_error({8: face}).lineno == 9


def test_build_rejects_degenerate_sizes():
    with pytest.raises(ValueError):
        build_equilateral_torus(1, 4, 1.0)
    with pytest.raises(ValueError):
        build_right_triangle_torus(2, 1, 1.0, 1.0)
    with pytest.raises(ValueError):
        build_equilateral_torus(2, 2, -1.0)


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(["equilateral", "right"]),
    st.integers(min_value=2, max_value=12),
    st.integers(min_value=2, max_value=12),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_topology_matches_reference(kind, n1, n2, seed):
    if kind == "equilateral":
        m = build_equilateral_torus(n1, n2, 0.5)
    else:
        m = build_right_triangle_torus(n1, n2, 1.0, 2.0)
    assert_topology_matches_reference(m)

    rng = np.random.default_rng(seed)
    faces = rng.permutation(m.n_f)
    label = rng.permutation(m.n_v)  # old vertex v becomes label[v]
    vertices = np.empty_like(m.vertices)
    vertices[label] = m.vertices
    shuffled = Mesh(vertices, label[m.triangles[faces]], m.shifts[faces], m.lattice)
    assert_topology_matches_reference(shuffled)
    assert validate(shuffled).ok
