"""Command-line front end: every experiment as a reproducible run.

Each subcommand writes CSV (or plain-text) output and prints one CHECK line
per declared acceptance property.  Exit status is 0 only when every declared
check passes; 2 flags a usage/configuration problem, including a file that
cannot be read or written; 1 flags a numerical or solver failure or a
malformed checkpoint or mesh file.  A config file of `key = value` lines
supplies defaults that explicit command-line flags override, and SWE_SEED
sets the default seed.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

import numpy as np

from . import bloch, dynamics, fem, helmholtz, linalg
from .mesh import (
    build_equilateral_torus,
    build_right_triangle_torus,
    reciprocal_wavevector,
    write_mesh,
)


class UsageError(Exception):
    pass


def _fmt(x):
    return f"{float(x):.12g}"


def _write_lines(path, lines):
    text = "\n".join(lines) + "\n"
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


# --------------------------------------------------------------------------
# config plumbing


def _load_config(path):
    """Parse `key = value` lines into injectable command-line flags."""
    flags = []
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise UsageError(f"{path}: line {lineno}: expected 'key = value'")
            key, value = (part.strip() for part in line.split("=", 1))
            if not key or not value:
                raise UsageError(f"{path}: line {lineno}: empty key or value")
            flag = "--" + key.replace("_", "-")
            if value.lower() in ("true", "false"):
                if value.lower() == "true":
                    flags.append(flag)
            else:
                flags.extend([flag, value])
    return flags


def _seed_default():
    try:
        return int(os.environ.get("SWE_SEED", "0"))
    except ValueError:
        raise UsageError("SWE_SEED must be an integer")


def _finite_float(text):
    """argparse type for float flags: nan and inf are usage errors."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _tolerance(text):
    """argparse type for --tol: a relative tolerance strictly between 0 and 1."""
    value = _finite_float(text)
    if not 0.0 < value < 1.0:
        raise argparse.ArgumentTypeError(f"expected a tolerance in (0, 1), got {text!r}")
    return value


def _parse_pair(text, name):
    parts = text.split(",")
    if len(parts) != 2:
        raise UsageError(f"{name} must be two comma-separated numbers")
    try:
        return _finite_float(parts[0]), _finite_float(parts[1])
    except argparse.ArgumentTypeError:
        raise UsageError(f"{name} must be two finite numbers") from None


def _check(name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"CHECK {name}: {status}{suffix}")
    return bool(ok)


# --------------------------------------------------------------------------
# mesh construction shared by several subcommands


def _add_mesh_flags(p):
    p.add_argument("--mesh-kind", choices=("equilateral", "right"), default="equilateral")
    p.add_argument("--n1", type=int, default=8)
    p.add_argument("--n2", type=int, default=8)
    p.add_argument("--dx", type=_finite_float, default=1.0)


def _build_mesh(args):
    try:
        if args.mesh_kind == "equilateral":
            return build_equilateral_torus(args.n1, args.n2, args.dx)
        return build_right_triangle_torus(args.n1, args.n2, args.n1 * args.dx, args.n2 * args.dx)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _params(cls, **values):
    """SweParams or RossbyParams from flags; rejected values are usage errors."""
    try:
        return cls(**values)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


# --------------------------------------------------------------------------
# converge


def cmd_converge(args):
    try:
        levels = [int(s) for s in args.levels.split(",") if s]
    except ValueError:
        raise UsageError("--levels must be comma-separated integers") from None
    if len(levels) < 3:
        raise UsageError("need at least three refinement levels")
    if levels != sorted(levels) or levels[0] < 2:
        raise UsageError("--levels must be increasing mesh sizes of at least 2")
    results = {}
    for mode in ("collocated", "projected"):
        results[mode] = dynamics.run_convergence(
            tuple(levels), mode, steps_factor=args.steps_factor
        )
    col, proj = results["collocated"], results["projected"]

    lines = ["dx,err_collocated,err_projected"]
    for dx, ec, ep in zip(col.dxs, col.errors, proj.errors):
        lines.append(f"{_fmt(dx)},{_fmt(ec)},{_fmt(ep)}")
    lines.append(
        f"# slope_collocated = {_fmt(col.order)}, slope_projected = {_fmt(proj.order)}"
    )
    _write_lines(args.out, lines)

    if args.gnuplot and args.out not in (None, "-"):
        _write_lines(
            args.out + ".gp",
            [
                "set datafile separator ','",
                "set logscale xy",
                "set xlabel 'dx'",
                "set ylabel 'free-surface L2 error'",
                f"plot '{args.out}' every ::1 using 1:2 with linespoints title 'collocated', \\",
                f"     '{args.out}' every ::1 using 1:3 with linespoints title 'projected'",
            ],
        )

    ok = _check(
        "collocated slope in [1.7, 2.4]",
        1.7 <= col.order <= 2.4,
        f"slope = {col.order:.3f}",
    )
    ok &= _check("projected slope >= 2.7", proj.order >= 2.7, f"slope = {proj.order:.3f}")
    return 0 if ok else 1


# --------------------------------------------------------------------------
# dispersion


def _dispersion_rows(args, kind):
    if kind == "gravity":
        params_g = _params(dynamics.SweParams, f0=args.f0, beta=0.0, c2=args.c2)
        return bloch.sweep_brillouin(args.ngrid, "gravity", params_g, dx=args.dx)
    rp = _params(dynamics.RossbyParams, f0=args.f0, beta=args.beta, c2=args.c2)
    fhat = _parse_pair(args.fhat, "--fhat")
    if fhat == (0.0, 0.0):
        raise UsageError("--fhat must be a nonzero direction")
    return bloch.sweep_brillouin(args.ngrid, "rossby", rp, fhat=fhat, dx=args.dx)


def cmd_dispersion(args, kind=None):
    kind = kind or args.kind
    if kind not in ("gravity", "rossby"):
        raise UsageError("--kind must be gravity or rossby")
    if args.ngrid < 8:
        raise UsageError("--ngrid must be at least 8")
    if args.dx <= 0:
        raise UsageError("--dx must be positive")
    try:
        rows = _dispersion_rows(args, kind)
    except linalg.SolverError as exc:
        print(f"error: eigensolver failure: {exc}", file=sys.stderr)
        return 1

    header = "k,l,omega1,omega2,omega3,omega4"
    if kind == "rossby":
        header += ",label1,label2,label3,label4"
    if args.compare_exact:
        header += ",omega_exact"
    lines = [header]
    for r in rows:
        cells = [_fmt(r.kdx[0]), _fmt(r.kdx[1])] + [_fmt(w) for w in r.omegas]
        if kind == "rossby":
            cells += list(r.labels)
        if args.compare_exact:
            kphys = np.asarray(r.kdx) / args.dx
            if kind == "gravity":
                ex = math.sqrt(args.f0 ** 2 + args.c2 * float(kphys @ kphys))
            else:
                fhat = np.asarray(_parse_pair(args.fhat, "--fhat"))
                fhat = fhat / np.linalg.norm(fhat)
                k_east = float(kphys @ np.array([fhat[1], -fhat[0]]))
                denom = float(kphys @ kphys) + args.f0 ** 2 / args.c2
                ex = -args.beta * k_east / denom if denom > 0 else 0.0
            cells.append(_fmt(ex))
        lines.append(",".join(cells))
    _write_lines(args.out, lines)

    if args.gnuplot and args.out not in (None, "-"):
        _write_lines(
            args.out + ".gp",
            [
                "set datafile separator ','",
                "set dgrid3d 48,48",
                "set contour base",
                "set xlabel 'k dx'",
                "set ylabel 'l dx'",
                f"splot '{args.out}' every ::1 using 1:2:3 with lines title 'lowest branch'",
            ],
        )
    print(f"dispersion sweep: {len(rows)} zone points, kind = {kind}")
    return 0


# --------------------------------------------------------------------------
# oracle


def cmd_oracle(args):
    if args.samples < 1:
        raise UsageError("--samples must be positive")
    try:
        fem.quadrature_rule(args.quad_degree)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    report = bloch.oracle_report(args.samples, seed=args.seed, quad_degree=args.quad_degree)
    lines = []
    worst_name, (worst_val, worst_kdx) = max(report.items(), key=lambda kv: kv[1][0])
    for name in ("Mr", "Lr", "D1r", "D2r"):
        val, kdx = report[name]
        lines.append(f"{name} max discrepancy = {val:.3e} at kdx = ({_fmt(kdx[0])}, {_fmt(kdx[1])})")
    ok = worst_val <= 1e-12
    lines.append(f"result: {'PASS' if ok else 'FAIL'} (threshold 1e-12, {args.samples} samples)")
    if not ok:
        lines.append(
            f"worst block {worst_name} at kdx = ({_fmt(worst_kdx[0])}, {_fmt(worst_kdx[1])})"
        )
    _write_lines(args.out, lines)
    if args.out not in (None, "-"):
        print(lines[-1])
    return 0 if ok else 1


# --------------------------------------------------------------------------
# helmholtz


def cmd_helmholtz(args):
    if args.checkpoint:
        try:
            mesh, state = dynamics.read_checkpoint(args.checkpoint)
        except dynamics.CheckpointFormatError as exc:
            print(f"error: {args.checkpoint}: {exc}", file=sys.stderr)
            return 1
        u = state.u
    else:
        mesh = _build_mesh(args)
        ops = fem.operators(mesh)
        rng = np.random.default_rng(args.seed)
        u = fem.Field(ops.v, rng.standard_normal(ops.v.n_dofs))
    if args.filter_hp2:
        u = helmholtz.project_hp2(u, tol=args.tol)

    e = helmholtz.component_energies(u, args.c2, tol=args.tol)
    total = sum(e.values())
    lines = ["component,energy"]
    for name, key in (
        ("mean", "mean"),
        ("potential", "divergent"),
        ("stream", "rotational"),
        ("spurious", "residual"),
    ):
        lines.append(f"{name},{_fmt(e[key])}")
    lines.append(f"total,{_fmt(total)}")
    _write_lines(args.out, lines)

    ok = True
    if args.filter_hp2:
        ok = _check(
            "filtered field has no spurious energy",
            e["residual"] <= 1e-18 * max(total, 1e-300),
            f"spurious/total = {e['residual'] / max(total, 1e-300):.3e}",
        )
    return 0 if ok else 1


# --------------------------------------------------------------------------
# simulate


def _simulate_initial(args, mesh, params):
    ops = fem.operators(mesh)
    rng = np.random.default_rng(args.seed)
    exact = None
    if args.init == "geostrophic":
        eta0 = fem.Field(ops.p2, rng.standard_normal(ops.p2.n_dofs))
        state = dynamics.geostrophic_init(eta0, params)
    elif args.init in ("physical", "spurious"):
        state = dynamics.inertial_init(mesh, args.init, seed=args.seed)
    elif args.init == "random":
        state = dynamics.State(
            fem.Field(ops.v, rng.standard_normal(ops.v.n_dofs)),
            fem.Field(ops.p2, rng.standard_normal(ops.p2.n_dofs)),
            0.0,
        )
    elif args.init == "wave":
        m1, m2 = _parse_pair(args.wave_m, "--wave-m")
        k = reciprocal_wavevector(mesh, int(m1), int(m2))
        spec = dynamics.PlaneWaveSpec(k=tuple(k))
        state = dynamics._initial_state(mesh, "projected", spec, params)
        exact = (spec, params)
    else:
        raise UsageError(f"unknown init mode {args.init!r}")
    return state, exact


def cmd_simulate(args):
    if args.steps < 1:
        raise UsageError("--steps must be positive")
    if args.dt <= 0:
        raise UsageError("--dt must be positive")
    mesh = _build_mesh(args)
    params = _params(dynamics.SweParams, f0=args.f0, beta=args.beta, c2=args.c2)
    try:
        state, exact = _simulate_initial(args, mesh, params)
    except ValueError as exc:
        raise UsageError(str(exc))
    if args.filter_hp2:
        state = dynamics.State(
            helmholtz.project_hp2(state.u, tol=args.tol), state.eta, state.time
        )

    ops = fem.operators(mesh)
    header = "t,energy,mean_e,pot_e,stream_e,spurious_e"
    if exact:
        header += ",eta_l2err"
    lines = [header]

    def record(st):
        e = helmholtz.component_energies(st.u, params.c2, tol=args.tol)
        row = [
            _fmt(st.time),
            _fmt(dynamics.energy(st, params)),
            _fmt(e["mean"]),
            _fmt(e["divergent"]),
            _fmt(e["rotational"]),
            _fmt(e["residual"]),
        ]
        if exact:
            spec, prm = exact
            _, eta_fn = dynamics.exact_plane_wave(spec, prm, t=st.time, mesh=mesh)
            row.append(_fmt(dynamics.l2_error_p2(st.eta, eta_fn)))
        lines.append(",".join(row))
        return e

    e0 = record(state)
    first = state
    energy0 = dynamics.energy(state, params)
    st = state
    for _ in range(args.steps):
        st = dynamics.step_midpoint(st, args.dt, params, tol=args.tol)
        ef = record(st)
    _write_lines(args.out, lines)

    if args.checkpoint_out:
        mesh_path = args.checkpoint_out + ".mesh"
        write_mesh(mesh, mesh_path)
        dynamics.write_checkpoint(args.checkpoint_out, st, os.path.basename(mesh_path))
        print(f"checkpoint written to {args.checkpoint_out}")

    if args.gnuplot and args.out not in (None, "-"):
        _write_lines(
            args.out + ".gp",
            [
                "set datafile separator ','",
                "set xlabel 't'",
                "set ylabel 'energy'",
                f"plot '{args.out}' every ::1 using 1:2 with lines title 'total', \\",
                f"     '{args.out}' every ::1 using 1:4 with lines title 'potential', \\",
                f"     '{args.out}' every ::1 using 1:5 with lines title 'stream', \\",
                f"     '{args.out}' every ::1 using 1:6 with lines title 'spurious'",
            ],
        )

    ok = True
    if args.init == "geostrophic":
        du = np.max(np.abs(st.u.coeffs - first.u.coeffs)) / max(
            np.max(np.abs(first.u.coeffs)), 1e-300
        )
        de = np.max(np.abs(st.eta.coeffs - first.eta.coeffs)) / max(
            np.max(np.abs(first.eta.coeffs)), 1e-300
        )
        ok &= _check("geostrophic drift <= 1e-10", max(du, de) <= 1e-10,
                     f"u drift {du:.2e}, eta drift {de:.2e}")
    elif args.init == "spurious":
        spur0 = e0["residual"]
        drift = abs(ef["residual"] - spur0) / spur0
        leak = (ef["mean"] + ef["divergent"] + ef["rotational"]) / spur0
        pot = 0.5 * params.c2 * float(st.eta.coeffs @ (ops.M @ st.eta.coeffs))
        ok &= _check("spurious norm conserved <= 1e-10", drift <= 1e-10, f"drift {drift:.2e}")
        ok &= _check(
            "no leakage into resolved modes <= 1e-10",
            max(leak, pot / spur0) <= 1e-10,
            f"component leak {leak:.2e}, eta energy ratio {pot / spur0:.2e}",
        )
    else:
        drift = abs(dynamics.energy(st, params) - energy0) / max(abs(energy0), 1e-300)
        ok &= _check("energy conserved <= 1e-10", drift <= 1e-10, f"drift {drift:.2e}")
    if args.filter_hp2:
        total = sum(ef.values())
        ok &= _check(
            "filtered run stays spurious-free",
            ef["residual"] <= 1e-16 * max(total, 1e-300),
            f"spurious/total = {ef['residual'] / max(total, 1e-300):.3e}",
        )
    return 0 if ok else 1


# --------------------------------------------------------------------------
# dump-matrices


def cmd_dump_matrices(args):
    mesh = _build_mesh(args)
    ops = fem.operators(mesh)
    available = {
        "M": lambda: ops.M,
        "L": lambda: ops.L,
        "Mv": lambda: ops.Mv,
        "E": lambda: ops.E,
        "G": lambda: ops.Mv @ ops.E,
        "P": lambda: ops.P,
        "C": lambda: fem.assemble_coriolis(ops.v, args.f0),
    }
    names = [s for s in args.which.split(",") if s]
    unknown = [n for n in names if n not in available]
    if unknown:
        raise UsageError(f"unknown matrices {unknown}; choose from {sorted(available)}")
    for name in names:
        path = f"{args.out_prefix}{name}.txt"
        fem.write_matrix_text(available[name](), path)
        print(f"wrote {path}")
    return 0


# --------------------------------------------------------------------------
# argument plumbing


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="swelab",
        description="wave-propagation laboratory for the mixed P1DG-P2 pair",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    seed = _seed_default()

    def common(p):
        p.add_argument("--config", default=None, help="key = value defaults file")
        p.add_argument("--out", default=None, help="output file (default stdout)")
        p.add_argument("--seed", type=int, default=seed)

    p = sub.add_parser("converge", help="free-surface convergence experiment")
    common(p)
    p.add_argument("--gnuplot", action="store_true", help="also emit a plot script")
    p.add_argument("--levels", default="8,16,32")
    p.add_argument("--steps-factor", type=_finite_float, default=1.0)
    p.set_defaults(func=cmd_converge)

    for name, kind in (("dispersion", None), ("rossby", "rossby")):
        p = sub.add_parser(name, help="Brillouin-zone dispersion sweep")
        common(p)
        p.add_argument("--gnuplot", action="store_true", help="also emit a plot script")
        p.add_argument("--kind", choices=("gravity", "rossby"),
                       default="gravity" if kind is None else "rossby")
        p.add_argument("--ngrid", type=int, default=32)
        p.add_argument("--f0", type=_finite_float, default=1e-4)
        p.add_argument("--beta", type=_finite_float, default=1e-12)
        p.add_argument("--c2", type=_finite_float, default=1e5)
        p.add_argument("--dx", type=_finite_float, default=1e5)
        p.add_argument("--fhat", default="0,1")
        p.add_argument("--compare-exact", action="store_true")
        if kind is None:
            p.set_defaults(func=cmd_dispersion)
        else:
            p.set_defaults(func=lambda a: cmd_dispersion(a, kind="rossby"))

    p = sub.add_parser("oracle", help="closed-form reduction oracle report")
    common(p)
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--quad-degree", type=int, default=4)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("helmholtz", help="component energies of a velocity field")
    common(p)
    p.add_argument("--tol", type=_tolerance, default=1e-12)
    _add_mesh_flags(p)
    p.add_argument("--checkpoint", default=None)
    p.add_argument("--c2", type=_finite_float, default=1.0)
    p.add_argument("--filter-hp2", action="store_true")
    p.set_defaults(func=cmd_helmholtz)

    p = sub.add_parser("simulate", help="implicit-midpoint time integration")
    common(p)
    p.add_argument("--gnuplot", action="store_true", help="also emit a plot script")
    p.add_argument("--tol", type=_tolerance, default=1e-12)
    _add_mesh_flags(p)
    p.add_argument("--init",
                   choices=("geostrophic", "physical", "spurious", "random", "wave"),
                   default="random")
    p.add_argument("--steps", type=int, default=100)
    p.add_argument("--dt", type=_finite_float, default=0.1)
    p.add_argument("--f0", type=_finite_float, default=1.0)
    p.add_argument("--beta", type=_finite_float, default=0.0)
    p.add_argument("--c2", type=_finite_float, default=1.0)
    p.add_argument("--wave-m", default="1,0", help="lattice mode indices m1,m2")
    p.add_argument("--filter-hp2", action="store_true")
    p.add_argument("--checkpoint-out", default=None)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("dump-matrices", help="export assembled operators as text")
    common(p)
    _add_mesh_flags(p)
    p.add_argument("--which", default="M,L,Mv,E,G")
    p.add_argument("--f0", type=_finite_float, default=1.0)
    p.add_argument("--out-prefix", default="swelab_")
    p.set_defaults(func=cmd_dump_matrices)

    return parser


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    try:
        # two-phase parse: config-file values become defaults the explicit
        # flags then override (argparse keeps the last occurrence)
        if argv and not argv[0].startswith("-"):
            probe, _ = parser.parse_known_args(argv)
            if getattr(probe, "config", None):
                injected = _load_config(probe.config)
                argv = [argv[0]] + injected + argv[1:]
        args = parser.parse_args(argv)
        return args.func(args)
    except (UsageError, OSError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except linalg.SolverError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
