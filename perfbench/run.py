"""Benchmark of homapprox: one workload per process, checked by an oracle.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload planar|geometric|configs \
        --seed N --seconds S --trace 0|1

The run repeats whole passes over the workload's cases until S seconds have
passed (at least one pass), checks every result with the oracle and prints,
as the last line of standard output, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones; with ``--trace 1`` the first pass runs
untraced and the remaining passes run with every layer wrapped, and the
metrics are the per-layer ones.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_PROBES = 2            # extra set-ups in fresh processes, for a median

END_TO_END_UNITS = {
    "setup_s": "s", "wall_s": "s", "max_case_s": "s", "sup_err_geomean": "1",
    "eval_pts_per_s": "points/s", "peak_rss_mb": "MB",
}


def _setup(workload, seed, workdir):
    """Import the package and build the workload; returns (cases, seconds)."""
    t0 = time.perf_counter()
    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
    import homapprox.cli  # noqa: F401  (the configs workload enters here)
    import workloads
    cases = workloads.build(workload, seed, ROOT, workdir)
    return cases, time.perf_counter() - t0


def _probe_setup(workload, seed):
    """Set-up time of a fresh process, measured inside that process."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
           "--seed", str(seed), "--setup-probe"]
    res = subprocess.run(cmd, capture_output=True, text=True, timeout=120,
                         check=True)
    return float(res.stdout.strip().splitlines()[-1])


def _same_as_first(case, fp, public, first, out):
    """Check a later pass's result against the oracle-checked first one.

    The program is deterministic, so an identical result earns the first
    result's verdict; any difference is a failed check.
    """
    import numpy as np
    fp0, public0, out0 = first
    if fp != fp0:
        out.problems.append(f"{case.name}: result differs from the first pass")
    elif not (public is public0 is None
              or (public is not None and public0 is not None
                  and np.array_equal(public, public0))):
        out.problems.append(f"{case.name}: public evaluation differs from "
                            "the first pass")
    out.dishonest, out.oracle_err, out.nonexact = (
        out0.dishonest, out0.oracle_err, out0.nonexact)


def _run_pass(cases, index, tracer, firsts):
    """One pass; returns (case seconds, outcomes).

    ``firsts[i]`` holds case i's first checked result (fingerprint, public
    values, outcome); the oracle checks a case only until it has one.
    """
    import workloads
    times, outcomes = [], []
    for i, case in enumerate(cases):
        if tracer is not None:
            tracer.begin_case(index, case.name)
        out = workloads.Outcome()
        t0 = time.perf_counter()
        try:
            result = case.run()
        except Exception:                               # counted as failed
            times.append(time.perf_counter() - t0)
            traceback.print_exc()
            out.problems.append(f"{case.name}: raised")
            out.dishonest = None
            outcomes.append(out)
            continue
        times.append(time.perf_counter() - t0)
        try:
            public = case.evaluate(result, out)
            fp = case.fingerprint(result)
            if firsts[i] is None:
                case.check(result, public, out)
                firsts[i] = (fp, public, out)
            else:
                _same_as_first(case, fp, public, firsts[i], out)
        except Exception:
            traceback.print_exc()
            out.problems.append(f"{case.name}: check raised")
        finally:
            case.cleanup(result)
        outcomes.append(out)
    return times, outcomes


def _ladder_problems(cases, outcomes):
    import oracle
    ladders = {}
    for case, out in zip(cases, outcomes):
        if case.ladder and out.oracle_err is not None:
            ladders.setdefault(case.ladder, (case.strict, []))[1].append(
                out.oracle_err)
    return [f"ladder {name} not decreasing: {errs}"
            for name, (strict, errs) in ladders.items()
            if not oracle.ladder_ok(errs, strict=strict)]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("planar", "geometric", "configs"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help="only time the set-up and print it (internal)")
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "homapprox", "__init__.py")):
        print(f"perfbench: no package source under {ROOT}/src", file=sys.stderr)
        return 2
    # one thread per process: BLAS pools would contend for the two cores
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"

    workdir = os.path.join(HERE, "out", f"work-{os.getpid()}")
    if args.setup_probe:
        print(_setup(args.workload, args.seed, workdir)[1])
        return 0
    os.makedirs(workdir, exist_ok=True)
    try:
        return _bench(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _bench(args, workdir):
    cases, setup0 = _setup(args.workload, args.seed, workdir)
    tracer = None
    untraced, traced = [], []          # per pass: (case seconds, outcomes)
    firsts = [None] * len(cases)
    start = time.perf_counter()
    while True:
        if args.trace and untraced and tracer is None:
            import spans
            tracer = spans.Tracer()
            tracer.install()
            # traced passes rebuild their inputs, so set-up layers show too
            tracer.begin_case(len(untraced), "setup")
            import workloads
            cases = workloads.build(args.workload, args.seed, ROOT, workdir)
        index = len(untraced) + len(traced)
        t0 = time.perf_counter()
        result = _run_pass(cases, index, tracer, firsts)
        (traced if tracer else untraced).append(result)
        now = time.perf_counter()
        # no pass that would end more than half a pass after the time is up
        if now - start + (now - t0) / 2 >= args.seconds:
            if not args.trace or traced:
                break
    if tracer is not None:
        tracer.uninstall()

    problems, attempted, failed = [], 0, 0
    for times, outcomes in untraced + traced:
        for out in outcomes:
            attempted += 1
            failed += out.dishonest is not False
            problems += out.problems
        problems += _ladder_problems(cases, outcomes)
    for p in dict.fromkeys(problems):
        print("CHECK FAILED:", p, file=sys.stderr)
    for i, case in enumerate(cases):
        outs = [outcomes[i] for _, outcomes in untraced + traced]
        secs = statistics.median(times[i] for times, _ in untraced + traced)
        err = outs[-1].oracle_err
        print(f"case {case.name}: {secs:.3f} s"
              + ("" if err is None else f", oracle sup error {err:.6g}")
              + (", report-honesty FAILED" if outs[-1].dishonest else ""))

    if args.trace:
        metrics = _per_layer(tracer, untraced, traced, args)
    else:
        metrics = _end_to_end(args, setup0, untraced)
    for name, m in metrics.items():
        print(f"{name}: {m['value']} {m['unit']}")
    print(f"attempted {attempted}, failed {failed}, "
          f"{'correct' if not problems else 'INCORRECT'}")
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def _case_medians(passes):
    """Each case's median time over the passes."""
    return [statistics.median(col) for col in zip(*(t for t, _ in passes))]


def _end_to_end(args, setup0, passes):
    setups = [setup0] + [_probe_setup(args.workload, args.seed)
                         for _ in range(SETUP_PROBES)]
    errs = [out.oracle_err for out in passes[0][1] if out.nonexact]
    case_s = _case_medians(passes)
    # per evaluated case: its batch size and its median call time in the run
    evals = [(col[0].eval_points,
              statistics.median(c for o in col for c in o.eval_calls))
             for col in zip(*(outs for _, outs in passes)) if col[0].eval_calls]
    values = {
        "setup_s": statistics.median(setups),
        "wall_s": sum(case_s),
        "max_case_s": max(case_s),
        "sup_err_geomean": math.exp(statistics.fmean(math.log(e) for e in errs)),
        "eval_pts_per_s": (sum(points for points, _ in evals)
                           / sum(secs for _, secs in evals)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}


def _per_layer(tracer, untraced, traced, args):
    import spans
    first = len(untraced)
    values = tracer.metrics(range(first, first + len(traced)))
    values["trace.overhead_s"] = (sum(_case_medians(traced))
                                  - sum(_case_medians(untraced)))
    for name in sorted(k for k, v in values.items() if v is None):
        print(f"perfbench: layer metric {name} is missing (its wrapped "
              "attribute no longer exists)", file=sys.stderr)
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    tracer.dump(os.path.join(HERE, "out",
                             f"trace-{args.workload}-seed{args.seed}.json"))
    return {k: {"value": values[k], "unit": unit}
            for k, (unit, _) in spans.PER_LAYER.items()}


if __name__ == "__main__":
    sys.exit(main())
