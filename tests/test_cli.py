from pathlib import Path

import numpy as np
import pytest

from swelab import bloch, cli, dynamics, fem, linalg
from swelab.mesh import Mesh, build_right_triangle_torus, write_mesh

DATA = Path(__file__).parent / "data"


def run(argv, capsys):
    try:
        rc = cli.main(argv)
        code = 0 if rc is None else rc
    except SystemExit as e:
        code = e.code or 0
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ["converge", "--levels", "8"],
        ["dispersion", "--ngrid", "4"],
        ["oracle", "--samples", "0"],
        ["simulate", "--init", "nonsense"],
        ["dump-matrices", "--which", "M,Q"],
        ["dispersion", "--dx", "0"],
        ["rossby", "--f0", "0"],
        ["dispersion", "--c2", "-1"],
        ["simulate", "--n1", "1"],
        ["helmholtz", "--dx", "0"],
        ["converge", "--levels", "16,8,4"],
        ["converge", "--levels", "8,x,32"],
        ["rossby", "--fhat", "0,0"],
        ["converge", "--tol", "1e-8"],
        ["simulate", "--dt", "nan"],
        ["simulate", "--c2", "nan"],
        ["simulate", "--beta", "nan"],
        ["simulate", "--f0", "inf"],
        ["simulate", "--tol", "nan"],
        ["dispersion", "--dx", "nan"],
        ["dispersion", "--f0", "nan"],
        ["rossby", "--fhat", "nan,1"],
        ["helmholtz", "--checkpoint", "/nonexistent"],
        ["simulate", "--n1", "4", "--n2", "4", "--steps", "1", "--out", "/nonexist/dir/x.csv"],
        ["simulate", "--config", "/nonexistent"],
        ["oracle", "--quad-degree", "9"],
        ["simulate", "--tol", "0"],
        ["simulate", "--tol", "-1"],
        ["helmholtz", "--tol", "2"],
        ["converge", "--levels", "4,4,8"],
        ["rossby", "--kind", "gravity"],
        ["simulate", "--steps", "0"],
        ["simulate", "--dt", "0"],
        ["simulate", "--n1", "3", "--n2", "3", "--init", "geostrophic", "--f0", "0"],
        ["simulate", "--n1", "3", "--n2", "3", "--init", "wave", "--wave-m", "1"],
        ["simulate", "--n1", "3", "--n2", "3", "--init", "wave", "--wave-m", "1.5,0"],
        ["simulate", "--dt", "abc"],
        ["converge", "--levels", "4,8,16", "--steps-factor", "0"],
        ["converge", "--levels", "4,8,16", "--steps-factor", "-2"],
        ["dump-matrices", "--which", ","],
        # flags that changed no output are gone; --out is not taken as a
        # prefix of --out-prefix
        ["converge", "--seed", "1"],
        ["dispersion", "--seed", "1"],
        ["rossby", "--seed", "1"],
        ["dump-matrices", "--seed", "1"],
        ["dump-matrices", "--n1", "2", "--n2", "2", "--out", "wanted.txt"],
        ["helmholtz", "--n1", "4", "--n2", "4", "--c2", "5"],
        # rules the library states: a nonpositive dx, and faces whose area
        # underflows to zero
        ["rossby", "--dx", "-1"],
        ["simulate", "--mesh-kind", "right", "--n1", "4", "--n2", "4", "--dx", "1e-320",
         "--steps", "1"],
        ["helmholtz", "--mesh-kind", "right", "--n1", "4", "--n2", "4", "--dx", "1e-320"],
    ],
)
def test_usage_errors_exit_2(argv, capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # where a wrongly accepted command would write
    code, out, err = run(argv, capsys)
    assert code == 2
    assert "usage error" in err or "usage" in err


@pytest.mark.parametrize("argv", [
    ["simulate", "--n1", "4", "--n2", "4", "--steps", "1"],
    ["helmholtz", "--n1", "4", "--n2", "4"],
])
def test_other_value_errors_are_not_usage_errors(argv, monkeypatch, capsys):
    # only swelab.ParameterError exits 2; a plain ValueError is a fault of
    # the program and ends in a traceback
    def operators(mesh):
        raise ValueError("internal")

    monkeypatch.setattr(fem, "operators", operators)
    with pytest.raises(ValueError, match="internal"):
        cli.main(argv)
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize(
    "command,key",
    [("converge", "seed"), ("dispersion", "seed"), ("rossby", "seed"),
     ("dump-matrices", "seed"), ("dump-matrices", "out"), ("helmholtz", "c2")],
)
def test_config_keys_of_removed_flags_exit_2(command, key, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{key} = 5\n")
    code, out, err = run([command, "--config", str(cfg)], capsys)
    assert code == 2 and f"--{key}" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run.cfg"]


@pytest.mark.parametrize("dt", ["6e4", "3e5", "1e6"])
def test_beta_plane_large_dt_conserves_energy(dt, capsys):
    # beta dt large enough that the skew part of the step matrix dominates
    code, out, err = run(
        ["simulate", "--mesh-kind", "equilateral", "--n1", "8", "--n2", "16", "--dx", "1e5",
         "--f0", "1e-4", "--c2", "1e5", "--beta", "1e-10", "--dt", dt, "--steps", "1"],
        capsys)
    assert code == 0, err
    assert "CHECK energy conserved <= 1e-10: PASS" in out


def test_overflowing_dt_exits_1(capsys):
    # dt^2 overflows to inf (on the f-plane through gamma = f0 dt / 2):
    # a solver error, not an OverflowError
    for beta in ("0", "0.05"):
        code, out, err = run(
            ["simulate", "--n1", "4", "--n2", "4", "--dt", "1e170", "--steps", "1",
             "--beta", beta], capsys)
        assert code == 1
        assert err.startswith("error:") and "not finite" in err
        assert "CHECK" not in out


def test_unwritable_output_fails_before_the_run(monkeypatch, tmp_path, capsys):
    def step(*args, **kwargs):
        raise AssertionError("stepped before the outputs were checked")

    monkeypatch.setattr(dynamics, "step_midpoint", step)
    for flag in ("--out", "--checkpoint-out"):
        code, out, err = run(
            ["simulate", "--n1", "4", "--n2", "4", "--steps", "100", flag,
             str(tmp_path / "missing" / "x.csv")], capsys)
        assert code == 2
        assert err.startswith("usage error:")


def test_failed_run_leaves_outputs_as_they_were(tmp_path, capsys):
    # the early writability check creates no file, and truncates none
    kept = tmp_path / "kept.csv"
    kept.write_text("kept\n")
    for out in ("x.csv", "kept.csv"):
        code, _, err = run(
            ["simulate", "--n1", "4", "--n2", "4", "--dt", "1e170", "--steps", "1",
             "--out", str(tmp_path / out), "--checkpoint-out", str(tmp_path / "c.chk")],
            capsys)
        assert code == 1 and "not finite" in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["kept.csv"]
        assert kept.read_text() == "kept\n"


@pytest.mark.parametrize("beta", ["0", "0.05"])
def test_simulate_rejects_filtered_spurious_init(beta, tmp_path, capsys):
    # the filter would remove the whole spurious field, leaving the spurious
    # checks to divide by a rounding-level residual energy
    code, out, err = run(
        ["simulate", "--init", "spurious", "--filter-hp2", "--beta", beta, "--n1", "8",
         "--n2", "8", "--steps", "20", "--dt", "0.05", "--out", str(tmp_path / "x.csv"),
         "--checkpoint-out", str(tmp_path / "c.chk")], capsys)
    assert code == 2 and "--filter-hp2" in err
    assert out == "" and list(tmp_path.iterdir()) == []


def test_dispersion_eigensolver_failure_exits_1(monkeypatch, capsys):
    # a negated displacement table negates every reduced Mr, making it
    # negative definite, so the batched Cholesky factorization fails
    d, C = bloch._displacement_table()
    monkeypatch.setattr(bloch, "_displacement_table", lambda quad_degree=4: (d, -C))
    code, out, err = run(["dispersion", "--ngrid", "8"], capsys)
    assert code == 1
    assert "not positive definite" in err


def test_oracle_pass(capsys):
    code, out, err = run(["oracle", "--samples", "5"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 5
    for name in ("Mr", "Lr", "D1r", "D2r"):
        assert any(l.startswith(f"{name} max discrepancy = ") for l in lines)
    assert lines[-1].startswith("result: PASS")


def test_oracle_out_file_prints_the_result_line(tmp_path, capsys):
    out_file = tmp_path / "oracle.txt"
    code, out, err = run(["oracle", "--samples", "3", "--out", str(out_file)], capsys)
    assert code == 0
    lines = out_file.read_text().splitlines()
    assert len(lines) == 5 and lines[-1].startswith("result: PASS")
    assert out.splitlines() == [lines[-1]]


def test_simulate_tol_reaches_every_solve(monkeypatch, capsys):
    tols = []
    solve = linalg.Solver.solve
    monkeypatch.setattr(linalg.Solver, "solve",
                        lambda self, b, tol=1e-12, x0=None: tols.append(tol) or solve(self, b, tol, x0))
    code, out, err = run(["simulate", "--n1", "4", "--n2", "4", "--steps", "3", "--tol", "1e-11",
                          "--out", "-"], capsys)
    assert code == 0, err
    # three steps, and the two potential solves of four records
    assert tols == [1e-11] * 11


def test_oracle_detects_weak_quadrature(capsys):
    code, out, err = run(["oracle", "--samples", "5", "--quad-degree", "2"], capsys)
    assert code == 1
    assert "result: FAIL" in out


def test_dispersion_gravity_csv(tmp_path, capsys):
    out_file = tmp_path / "disp.csv"
    code, out, err = run(
        ["dispersion", "--ngrid", "8", "--out", str(out_file), "--compare-exact"],
        capsys)
    assert code == 0
    lines = out_file.read_text().strip().splitlines()
    assert lines[0] == "k,l,omega1,omega2,omega3,omega4,omega_exact"
    assert len(lines) == 41  # 40 zone points on the 8x8 grid
    for row in lines[1:]:
        vals = [float(v) for v in row.split(",")]
        assert len(vals) == 7
        assert vals[2] <= vals[3] <= vals[4] <= vals[5]


def test_rossby_compare_exact_tracks_the_fundamental_branch(tmp_path, capsys):
    # the omega_exact column is the continuous quasi-geostrophic Rossby
    # frequency; the branch labelled fundamental approaches it at fourth
    # order in |k dx| (relative error 2.2e-4 at |k dx| = 0.74, 8.8e-2 at 3.7)
    out_file = tmp_path / "r.csv"
    code, _, _ = run(["dispersion", "--kind", "rossby", "--ngrid", "8", "--compare-exact",
                      "--out", str(out_file)], capsys)
    assert code == 0
    lines = out_file.read_text().splitlines()
    assert lines[0].endswith(",label4,omega_exact")
    for line in lines[1:]:
        cells = line.split(",")
        kdx = np.hypot(float(cells[0]), float(cells[1]))
        omega = float(cells[2 + cells[6:10].index("fundamental")])
        exact = float(cells[10])
        assert np.sign(omega) == np.sign(exact)
        assert abs(omega - exact) <= 1e-3 * kdx ** 4 * abs(exact)


def test_rossby_csv_has_labels(tmp_path, capsys):
    out_file = tmp_path / "ros.csv"
    code, out, err = run(["rossby", "--ngrid", "8", "--out", str(out_file)], capsys)
    assert code == 0
    lines = out_file.read_text().strip().splitlines()
    assert lines[0] == "k,l,omega1,omega2,omega3,omega4,label1,label2,label3,label4"
    names = {"fundamental", "higher1", "higher2", "higher3"}
    for row in lines[1:]:
        cells = row.split(",")
        assert len(cells) == 10
        assert set(cells[6:]) <= names


@pytest.mark.parametrize("argv", [["rossby"], ["dispersion", "--kind", "rossby"]])
@pytest.mark.parametrize("ngrid, flagged", [(33, 65), (8, 0)])
def test_rossby_labels_that_rounding_decides_are_counted(argv, ngrid, flagged, tmp_path, capsys):
    # the CSV keeps its format; one stderr line counts the rows whose label
    # the ambiguity flags of ``sweep_brillouin`` mark
    out_file = tmp_path / "ros.csv"
    code, _, err = run(argv + ["--ngrid", str(ngrid), "--out", str(out_file)], capsys)
    assert code == 0
    rows = out_file.read_text().strip().splitlines()[1:]
    warnings = [line for line in err.splitlines() if line.startswith("warning:")]
    if flagged:
        assert warnings == [f"warning: {flagged} of {len(rows)} rows have a label that rounding "
                            "decides (runner-up template within 1 % or a repeated frequency)"]
    else:
        assert warnings == []


def test_helmholtz_energies_sum(capsys):
    code, out, err = run(["helmholtz", "--n1", "3", "--n2", "3", "--seed", "4"], capsys)
    assert code == 0
    rows = dict(l.split(",") for l in out.strip().splitlines()[1:])
    total = float(rows.pop("total"))
    assert np.isclose(sum(float(v) for v in rows.values()), total, rtol=1e-10)


def test_helmholtz_filter_removes_spurious(capsys):
    code, out, err = run(
        ["helmholtz", "--n1", "3", "--n2", "3", "--seed", "4", "--filter-hp2"], capsys)
    assert code == 0
    rows = dict(l.split(",") for l in out.strip().splitlines()[1:]
                if "," in l and not l.startswith("CHECK"))
    assert float(rows["spurious"]) <= 1e-18 * float(rows["total"])
    assert "CHECK filtered field has no spurious energy: PASS" in out


def test_simulate_geostrophic_check(tmp_path, capsys):
    code, out, err = run(
        ["simulate", "--init", "geostrophic", "--n1", "3", "--n2", "3",
         "--steps", "4", "--dt", "0.05", "--out", str(tmp_path / "t.csv")], capsys)
    assert code == 0
    assert "CHECK geostrophic drift" in out
    assert "PASS" in out
    lines = (tmp_path / "t.csv").read_text().strip().splitlines()
    assert lines[0] == "t,energy,mean_e,pot_e,stream_e,spurious_e"
    assert len(lines) == 6  # t=0 plus one row per step


def test_simulate_filtered_run_stays_spurious_free(capsys):
    # the paper's claim on the f-plane: a field with its residual part
    # projected out gains none under the midpoint step
    code, out, err = run(["simulate", "--filter-hp2", "--n1", "4", "--n2", "4",
                          "--steps", "3", "--out", "-"], capsys)
    assert code == 0
    assert "CHECK filtered run stays spurious-free: PASS" in out
    ratio = float(out.split("spurious/total = ")[1].split(")")[0])
    assert ratio <= 1e-16


def test_simulate_spurious_check(capsys):
    code, out, err = run(
        ["simulate", "--init", "spurious", "--n1", "3", "--n2", "3",
         "--steps", "4", "--dt", "0.1", "--out", "-"], capsys)
    assert code == 0
    assert "CHECK spurious norm conserved" in out
    assert "CHECK no leakage into resolved modes" in out
    assert "FAIL" not in out


@pytest.mark.parametrize("flags,measured", [
    pytest.param(["--init", "geostrophic"], "geostrophic drift", id="geostrophic"),
    pytest.param(["--init", "physical"], None, id="physical"),
    pytest.param(["--init", "spurious"], "residual energy", id="spurious"),
    pytest.param(["--init", "random"], None, id="random"),
    pytest.param(["--init", "wave"], None, id="wave"),
    pytest.param(["--filter-hp2"], "filtered run spurious energy", id="filter-hp2"),
])
def test_simulate_beta_plane_checks_energy(flags, measured, capsys):
    # steadiness and residual decoupling hold on the f-plane only: on the
    # beta-plane a sound run checks energy and reports the rest as measured
    code, out, err = run(
        ["simulate", *flags, "--n1", "6", "--n2", "6", "--beta", "0.05",
         "--steps", "8", "--dt", "0.05", "--out", "-"], capsys)
    assert code == 0, err
    assert out.count("CHECK") == 1
    assert "CHECK energy conserved <= 1e-10: PASS" in out
    if measured:
        assert f"MEASURED {measured}: " in out


def test_simulate_wave_tracks_exact(tmp_path, capsys):
    code, out, err = run(
        ["simulate", "--init", "wave", "--wave-m", "1,0", "--n1", "6", "--n2", "6",
         "--mesh-kind", "right", "--dx", "0.166666666666666666", "--f0", "3.0",
         "--steps", "6", "--dt", "0.01", "--out", str(tmp_path / "w.csv")], capsys)
    assert code == 0
    lines = (tmp_path / "w.csv").read_text().strip().splitlines()
    assert lines[0].endswith(",eta_l2err")
    errs = [float(r.split(",")[-1]) for r in lines[1:]]
    assert all(e < 0.2 for e in errs)


def test_simulate_checkpoint_feeds_helmholtz(tmp_path, capsys):
    chk = tmp_path / "final.chk"
    code, out, err = run(
        ["simulate", "--init", "random", "--n1", "3", "--n2", "3", "--steps", "3",
         "--dt", "0.1", "--checkpoint-out", str(chk), "--out", str(tmp_path / "t.csv")],
        capsys)
    assert code == 0
    assert chk.exists()
    assert (tmp_path / "final.chk.mesh").exists()
    code, out, err = run(["helmholtz", "--checkpoint", str(chk)], capsys)
    assert code == 0
    assert out.startswith("component,energy")


def test_helmholtz_rejects_bad_checkpoint(tmp_path, capsys):
    bad = tmp_path / "bad.chk"
    bad.write_text("time 0.0\n")
    code, out, err = run(["helmholtz", "--checkpoint", str(bad)], capsys)
    assert code == 1
    assert err == f"error: {bad}: line 1: expected 'mesh <path>'\n"


def test_helmholtz_rejects_checkpoint_with_bad_mesh(tmp_path, capsys):
    chk = tmp_path / "final.chk"
    code, _, _ = run(
        ["simulate", "--n1", "3", "--n2", "3", "--steps", "1", "--checkpoint-out", str(chk),
         "--out", str(tmp_path / "t.csv")], capsys)
    assert code == 0
    (tmp_path / "final.chk.mesh").write_text("3 1\n0 0\n")
    code, out, err = run(["helmholtz", "--checkpoint", str(chk)], capsys)
    assert code == 1
    assert err.startswith("error:") and "final.chk.mesh" in err
    assert out == ""


def test_helmholtz_rejects_checkpoint_with_invalid_mesh(tmp_path, capsys):
    # a mesh that parses and assembles, but with face 0 replaced by a copy of
    # face 1: the mesh checks fail edge-adjacency
    chk = tmp_path / "final.chk"
    code, _, _ = run(
        ["simulate", "--n1", "4", "--n2", "4", "--steps", "1", "--checkpoint-out", str(chk),
         "--out", str(tmp_path / "t.csv")], capsys)
    assert code == 0
    mesh_file = tmp_path / "final.chk.mesh"
    lines = mesh_file.read_text().splitlines()
    face0 = 2 + 16  # after the comment, the header and the 16 vertices
    lines[face0] = lines[face0 + 1]
    mesh_file.write_text("\n".join(lines) + "\n")
    code, out, err = run(["helmholtz", "--checkpoint", str(chk)], capsys)
    assert code == 1
    assert err.startswith("error:") and "final.chk.mesh" in err and "edge-adjacency" in err
    assert out == ""


# mesh file lines of the 3 x 3 right torus: 1 a comment, 2 the header,
# 3-11 the vertices, 12-29 the faces, 30-31 the lattice
@pytest.mark.parametrize("lineno, text, message", [
    pytest.param(12, "0 1 4 0 0 0 0 0 inf", "'inf' is not finite", id="face inf"),
    pytest.param(13, "0 4 3 0 0 0 0 0 1e30", "integers", id="face 1e30"),
    pytest.param(14, "1 2 4 0 0 0 0 0 1.5", "integers", id="face 1.5"),
    pytest.param(5, "nan 0", "'nan' is not finite", id="vertex nan"),
    pytest.param(31, "0 nan", "'nan' is not finite", id="lattice nan"),
])
def test_helmholtz_rejects_checkpoint_with_malformed_mesh_values(lineno, text, message,
                                                                tmp_path, capsys):
    mesh = build_right_triangle_torus(3, 3, 3.0, 3.0)
    write_mesh(mesh, tmp_path / "grid.txt")
    ops = fem.operators(mesh)
    state = dynamics.State(fem.Field(ops.v, np.ones(ops.v.n_dofs)),
                           fem.Field(ops.p2, np.ones(ops.p2.n_dofs)))
    dynamics.write_checkpoint(tmp_path / "run.chk", state, "grid.txt")
    lines = (tmp_path / "grid.txt").read_text().splitlines()
    assert len(lines) == 31
    lines[lineno - 1] = text
    (tmp_path / "grid.txt").write_text("\n".join(lines) + "\n")
    code, out, err = run(["helmholtz", "--checkpoint", str(tmp_path / "run.chk")], capsys)
    assert code == 1 and out == ""
    assert err.startswith("error:") and f"grid.txt: line {lineno}: " in err and message in err


def test_other_value_errors_in_a_checkpoint_mesh_are_not_format_errors(tmp_path, monkeypatch,
                                                                        capsys):
    # a fault of the program while a checkpoint's mesh is read is not taken
    # for a malformed file: it propagates as itself
    chk = tmp_path / "final.chk"
    code, _, _ = run(["simulate", "--n1", "3", "--n2", "3", "--steps", "1",
                      "--checkpoint-out", str(chk), "--out", str(tmp_path / "t.csv")], capsys)
    assert code == 0

    def build_edges(mesh):
        raise ValueError("internal")

    monkeypatch.setattr(Mesh, "_build_edges", build_edges)
    with pytest.raises(ValueError, match="^internal$") as exc:
        dynamics.read_checkpoint(chk)
    assert type(exc.value) is ValueError
    with pytest.raises(ValueError, match="^internal$") as exc:
        cli.main(["helmholtz", "--checkpoint", str(chk)])
    assert type(exc.value) is ValueError
    assert capsys.readouterr().err == ""


def test_bad_env_seed_is_a_usage_error(monkeypatch, capsys):
    monkeypatch.setenv("SWE_SEED", "x")
    code, out, err = run(["oracle", "--samples", "3"], capsys)
    assert code == 2 and out == ""
    assert err == "usage error: SWE_SEED must be an integer\n"


def test_determinism_byte_identical(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for f in (a, b):
        code, _, _ = run(
            ["simulate", "--init", "random", "--n1", "3", "--n2", "3",
             "--steps", "3", "--dt", "0.1", "--seed", "7", "--out", str(f)], capsys)
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


def test_seed_changes_output(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for f, seed in ((a, "7"), (b, "8")):
        run(["simulate", "--init", "random", "--n1", "3", "--n2", "3", "--steps", "2",
             "--dt", "0.1", "--seed", seed, "--out", str(f)], capsys)
    assert a.read_bytes() != b.read_bytes()


def test_env_seed_default(tmp_path, capsys, monkeypatch):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    monkeypatch.setenv("SWE_SEED", "7")
    run(["simulate", "--init", "random", "--n1", "3", "--n2", "3", "--steps", "2",
         "--dt", "0.1", "--out", str(a)], capsys)
    run(["simulate", "--init", "random", "--n1", "3", "--n2", "3", "--steps", "2",
         "--dt", "0.1", "--seed", "7", "--out", str(b)], capsys)
    assert a.read_bytes() == b.read_bytes()


def test_config_file_and_override(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# sweep defaults\nngrid = 8\ncompare-exact = true\n")
    out_file = tmp_path / "d.csv"
    code, _, _ = run(
        ["dispersion", "--config", str(cfg), "--out", str(out_file)], capsys)
    assert code == 0
    header = out_file.read_text().splitlines()[0]
    assert header.endswith("omega_exact")

    # a flag given on the command line wins over the config file
    out2 = tmp_path / "d2.csv"
    code, _, _ = run(
        ["dispersion", "--config", str(cfg), "--ngrid", "9", "--out", str(out2)],
        capsys)
    assert code == 0
    assert len(out2.read_text().splitlines()) != len(out_file.read_text().splitlines())


def test_config_file_errors(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    for text in ("ngrid 8\n", "ngrid =\n"):
        cfg.write_text(text)
        code, out, err = run(["dispersion", "--config", str(cfg)], capsys)
        assert code == 2
        assert "line 1" in err


def test_dump_matrices_roundtrip(tmp_path, capsys):
    prefix = str(tmp_path / "op_")
    code, out, err = run(
        ["dump-matrices", "--n1", "2", "--n2", "2", "--which", "M,P,C",
         "--f0", "2.0", "--out-prefix", prefix], capsys)
    assert code == 0
    for name in ("M", "P", "C"):
        lines = (tmp_path / f"op_{name}.txt").read_text().strip().splitlines()
        rows = [l for l in lines if not l.startswith("#")]
        nr, nc, nnz = map(int, rows[0].split())
        assert nnz == len(rows) - 1
        for l in rows[1:]:
            r, c, v = l.split()
            float(v)


def test_converge_small(tmp_path, capsys):
    out_file = tmp_path / "conv.csv"
    code, out, err = run(
        ["converge", "--levels", "8,16,32", "--out", str(out_file), "--gnuplot"],
        capsys)
    assert code == 0
    assert "CHECK" in out
    text = out_file.read_text()
    assert text.splitlines()[0] == "dx,err_collocated,err_projected"
    assert "slope_collocated" in text
    assert (tmp_path / "conv.csv.gp").exists()


# commands whose outputs under tests/data were recorded from an earlier
# version; a refactoring must reproduce them.  {tmp} is the output directory.
MATRICES = ("M", "L", "Mv", "E", "G", "P", "C")
RECORDED = {
    "dump-matrices": (
        ["dump-matrices", "--mesh-kind", "equilateral", "--n1", "3", "--n2", "2",
         "--which", ",".join(MATRICES), "--out-prefix", "{tmp}/dump_"],
        [f"dump_{name}.txt" for name in MATRICES]),
    "dispersion": (["dispersion", "--ngrid", "8", "--compare-exact"], ["dispersion.csv"]),
    "rossby": (["rossby", "--ngrid", "8"], ["rossby.csv"]),
    "simulate": (["simulate", "--n1", "4", "--n2", "4", "--steps", "3"], ["simulate.csv"]),
    "simulate-beta": (
        ["simulate", "--n1", "4", "--n2", "4", "--steps", "3", "--mesh-kind", "equilateral",
         "--beta", "0.05"], ["simulate_beta.csv"]),
    "helmholtz": (["helmholtz", "--n1", "4", "--n2", "4", "--filter-hp2"], ["helmholtz.csv"]),
}


def _assert_csv_close(got, want):
    """Same header, labels and shape; numbers within 1e-9 of their column's max |value|."""
    got, want = ([line.split(",") for line in p.read_text().splitlines()] for p in (got, want))
    assert got[0] == want[0]
    assert [len(row) for row in got] == [len(row) for row in want]
    for g, w in zip(zip(*got[1:]), zip(*want[1:])):
        try:
            w = np.array(w, dtype=float)
        except ValueError:  # a label column
            assert g == w
            continue
        assert np.abs(np.array(g, dtype=float) - w).max() <= 1e-9 * np.abs(w).max()


def _assert_matrix_close(got, want):
    """Same header and pattern; values within 1e-14 of max |A|."""
    assert got.read_text().splitlines()[0] == want.read_text().splitlines()[0]
    g, w = (np.loadtxt(p, skiprows=1, ndmin=2) for p in (got, want))
    assert np.array_equal(g[:, :2], w[:, :2])
    assert np.abs(g[:, 2] - w[:, 2]).max() <= 1e-14 * np.abs(w[:, 2]).max()


@pytest.mark.parametrize("command", sorted(RECORDED))
def test_outputs_match_recording(command, tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("SWE_SEED", raising=False)
    argv, files = RECORDED[command]
    argv = [a.format(tmp=tmp_path) for a in argv]
    if command != "dump-matrices":
        argv += ["--out", str(tmp_path / files[0])]
    code, _, err = run(argv, capsys)
    assert code == 0, err
    for name in files:
        check = _assert_matrix_close if name.endswith(".txt") else _assert_csv_close
        check(tmp_path / name, DATA / name)
