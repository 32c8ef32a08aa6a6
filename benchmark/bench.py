"""Measure one workload in this process and print the result as JSON.

Started by ``run.py`` in a fresh interpreter with single-threaded BLAS and
``src`` on the import path; see README.md for the metrics.
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import resource
import statistics
import sys
import time
from contextlib import nullcontext
from pathlib import Path
from types import SimpleNamespace

import swelab
from swelab import bloch, dynamics, fem, helmholtz, linalg, mesh

import tracing
from reference import HostClock
from workloads import WORKLOADS

MODULES = {
    "mesh": mesh,
    "fem": fem,
    "linalg": linalg,
    "helmholtz": helmholtz,
    "dynamics": dynamics,
    "bloch": bloch,
}

# caches the package keeps across calls (functools.lru_cache); emptied before
# every set-up so that each set-up does the same work.  Operator and stepper
# caches are keyed by mesh, so they hold nothing yet for the meshes a set-up
# builds.
CACHES = [obj for mod in MODULES.values() for obj in vars(mod).values()
          if hasattr(obj, "cache_clear")]

SETUPS = 5       # set-ups per run; setup_s is their median
MIN_ROUNDS = 3   # rounds per timed phase, however short the run

RESULTS = Path(__file__).resolve().parent / "results"

# span name -> per-layer metric stem, where the layer is more than one function
LAYER_OF = {
    "mesh.build_right_triangle_torus": "mesh.build",
    "mesh.build_equilateral_torus": "mesh.build",
    # the assembly routines fem.operators calls for its operator bundle
    "fem.assemble_mass_p2": "fem.operators",
    "fem.assemble_stiffness_p2": "fem.operators",
    "fem.assemble_mass_p1dg": "fem.operators",
    "fem.gradient_embedding": "fem.operators",
    "fem.perp_matrix": "fem.operators",
}

TIME_LAYERS = (
    "mesh.build", "mesh.validate", "fem.operators", "fem.assemble_coriolis",
    "dynamics.stepper_prep", "linalg.solve_spd", "helmholtz.decompose",
    "dynamics.step_midpoint", "dynamics.solve_rossby", "dynamics.l2_error_p2",
    "bloch.sweep_brillouin", "bloch.reduced_matrices", "bloch.oracle_report",
    "linalg.eig_dense",
)
CALL_LAYERS = (
    "linalg.solve_spd", "helmholtz.decompose", "dynamics.step_midpoint", "linalg.eig_dense",
)
COUNTS = ("bloch.sweep_brillouin.points",)


def _fresh(make):
    """A new workload, not yet set up; the caller has dropped the previous one."""
    for cache in CACHES:
        cache.cache_clear()
    gc.collect()
    return make()


def _phase(make, budget, n_setups, reference, span=lambda name: nullcontext()):
    """Set-ups spread evenly over ``budget`` seconds, whole rounds in between.

    Spreading the set-ups lets ``setup_s`` see the same host as the rounds
    do.  A set-up runs in place of a round that would end past its due
    time.  A round starts only if it should end within the budget, or if it
    is the first after the last set-up, so that every run ends on the same
    memory footprint; set-ups still due when time is up run then.  Times
    are scaled to the reference host speed by a ``HostClock``; each round's
    wall time as measured, reference slices left out, is kept too.
    """
    clock = HostClock(reference)
    run = SimpleNamespace(setups=[], rounds=[], raw_rounds=[], clock=clock,
                          attempted=0, failed=0, setup_ok=True)
    cycles = []     # wall time of each round, with its reference slices
    work = None
    last_setup_fresh = False    # the last set-up has had no round yet
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        ahead = statistics.median(cycles) if cycles else 0.0    # one more round
        time_up = len(run.rounds) >= MIN_ROUNDS and elapsed + ahead > budget
        if len(run.setups) < n_setups and (
                time_up or elapsed + ahead > len(run.setups) * budget / n_setups):
            work = None     # so that set-ups never overlap in memory
            work = _fresh(make)
            clock.mark()
            with span("bench.setup"):
                work.setup(span)
            run.setups.append(clock.mark()[0])
            run.setup_ok &= work.setup_ok
            last_setup_fresh = len(run.setups) == n_setups
            continue
        if time_up and not last_setup_fresh:
            break
        last_setup_fresh = False
        n_ops = len(clock.ops)
        clock.mark()
        t0 = time.perf_counter()
        with span("bench.round"):
            out = work.round(clock)
        scaled, raw = clock.mark()
        run.rounds.append(scaled)
        run.raw_rounds.append(raw)
        cycles.append(time.perf_counter() - t0)
        run.attempted += len(clock.ops) - n_ops
        run.failed += work.check(out)
        out = None
    return run


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _layer_metrics(tracer, n_rounds):
    """Per layer: self time and calls in one set-up plus the mean per round."""
    secs = {k: [0.0, 0.0] for k in TIME_LAYERS}     # [set-up, all rounds]
    calls = {k: [0, 0] for k in CALL_LAYERS}
    library = 0.0
    for name, self_s, phases in tracer.self_times():
        if name.startswith("bench."):
            continue
        in_round = int("bench.round" in phases)
        library += in_round * self_s
        layer = LAYER_OF.get(name, name)
        if layer == "dynamics.step_midpoint" and "bench.prep" in phases:
            layer = "dynamics.stepper_prep"
        if layer in secs:
            secs[layer][in_round] += self_s
        if name in calls:
            calls[name][in_round] += 1
    metrics = {f"{k}_s": _metric(a + b / n_rounds, "s") for k, (a, b) in secs.items()}
    metrics.update(
        {f"{k}.calls": _metric(a + b / n_rounds, "count") for k, (a, b) in calls.items()})
    for k in COUNTS:
        metrics[k] = _metric(tracer.counts[k] / n_rounds, "count")
    metrics["trace.library_s"] = _metric(library / n_rounds, "s")
    return metrics


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--smoke", action="store_true")
    args = p.parse_args(argv)

    root = Path(__file__).resolve().parents[1]
    if Path(swelab.__file__).resolve().parent != root / "src" / "swelab":
        sys.exit(f"swelab imported from {swelab.__file__}, not from {root / 'src'}")

    make = functools.partial(WORKLOADS[args.workload], args.seed, args.smoke)
    reference = WORKLOADS[args.workload].reference()
    reference()     # warm-up
    budget = args.seconds / 2 if args.trace else args.seconds
    run = _phase(make, budget, 1 if args.trace else SETUPS, reference)
    attempted, failed, setup_ok = run.attempted, run.failed, run.setup_ok

    if args.trace:
        tracer = tracing.Tracer()
        tracer.install(MODULES)
        try:
            traced = _phase(make, budget, 1, reference, tracer.span)
        finally:
            tracer.uninstall()
        attempted += traced.attempted
        failed += traced.failed
        setup_ok &= traced.setup_ok
        # layer self times, trace.library_s and trace.round_s are as
        # measured, so that they add up; the overhead compares scaled rounds
        metrics = _layer_metrics(tracer, len(traced.raw_rounds))
        metrics["trace.round_s"] = _metric(statistics.fmean(traced.raw_rounds), "s")
        metrics["trace.overhead_s"] = _metric(
            statistics.fmean(traced.rounds) - statistics.fmean(run.rounds), "s")
        RESULTS.mkdir(exist_ok=True)
        tracer.write(RESULTS / f"{args.workload}-seed{args.seed}-spans.json")
    else:
        op_times = run.clock.ops
        metrics = {
            "setup_s": _metric(statistics.median(run.setups), "s"),
            "run_s": _metric(statistics.median(run.rounds), "s"),
            "op_ms.p50": _metric(1e3 * statistics.median(op_times), "ms"),
            "peak_rss_mb": _metric(
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
        q = statistics.quantiles(op_times, n=10) if len(op_times) > 1 else op_times * 9
        print(f"{args.workload}: {len(op_times)} ops in {len(run.rounds)} rounds, "
              f"op ms p50 {1e3 * statistics.median(op_times):.3f} p90 {1e3 * q[8]:.3f}; "
              f"setups {[round(s, 4) for s in run.setups]}; as measured: "
              f"round s p50 {statistics.median(run.raw_rounds):.4f}, "
              f"host speed factor p50 {statistics.median(run.clock.factors):.4f}",
              file=sys.stderr)

    print(json.dumps({
        "correct": bool(setup_ok),
        "attempted": attempted,
        "failed": min(failed, attempted),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
