"""Command-line front end: validated JSON configs, deterministic artifacts.

Subcommands: approx, unity, equilibrium, wapprox, partition-diag,
check-weight.  Every config object, the top level included, takes only its
required and optional keys.  A run computes all of its artifacts before it
writes any, each atomically (temp file + rename) into the output directory,
then a run manifest with input hash, package versions, seed, and timings.
All numeric CSV output uses 17 significant digits; everything except the
manifest timings is byte-reproducible.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time

import numpy as np
import scipy

from . import __version__
from .errors import (ConfigError, DimensionError, ExprError, HomApproxError)
from .expr import parse_expr, boundary_function, line_function
from .geometry import ConvexBody
from .partition import partition_sum_and_overlap, active_indices
from .pipeline import approximate_theorem1, approximate_theorem2
from .potential import (Weight, check_weight, mrs_support, density,
                        equilibrium_check)
from .unity import approximate_unity, unity_error_report
from .weighted_approx import (CompactifiedFunction, weighted_minimax,
                              _DEGREE_CAP)

_FLOAT = "{:.17g}".format
_RESIDUAL_ROWS = 512   # equally spaced boundary angles of residuals.csv


# ----------------------------------------------------------------- validation

def _check_type(value, types, pointer):
    ok = isinstance(value, types) and not isinstance(value, bool)
    if not ok:
        names = types.__name__ if not isinstance(types, tuple) else \
            "/".join(t.__name__ for t in types)
        raise ConfigError(f"expected {names}", pointer=pointer)
    # JSON reads 1e400 as inf and NaN as nan
    if isinstance(value, float) and not np.isfinite(value):
        raise ConfigError(f"expected a finite number, got {value}",
                          pointer=pointer)


def _keys(obj, required, optional, owner, pointer):
    """Refuse a key of obj outside required and optional, then a missing
    required key; owner names obj in the message."""
    for key in obj:
        if key not in (*required, *optional):
            raise ConfigError(f"{owner} takes no key {key!r}",
                              pointer=f"{pointer}/{key}")
    for key in required:
        if key not in obj:
            raise ConfigError(f"{owner} needs key {key!r}",
                              pointer=f"{pointer}/{key}")


def _numeric(value):
    """A number other than a bool, or lists of such nested to any depth
    whose siblings all have one shape."""
    if isinstance(value, (list, tuple)):
        return (all(map(_numeric, value))
                and len({np.shape(v) for v in value}) <= 1)
    return np.asarray(value).dtype.kind in "iuf"


# each body type's required keys, optional keys and factory
_BODY_TYPES = {
    "disk": ((), ("radius",), ConvexBody.disk),
    "ellipse": (("semi_axes",), (),
                lambda semi_axes: ConvexBody.ellipse(*semi_axes)),
    "square": ((), ("half_width",), ConvexBody.square),
    "polygon": (("vertices",), (), ConvexBody.polygon),
    "pnorm": (("p",), ("semi_axes",), ConvexBody.pnorm_ball),
    "radial-samples": (("angles", "radii"), (), ConvexBody.radial_samples),
}

# each weight type's required and optional keys
_WEIGHT_TYPES = {"body": (("body",), ()), "power": (("m",), ()),
                 "constant": ((), ()), "expr": (("w",), ())}


def _typed(spec, table, what, pointer):
    """The type of the config section spec: an object whose "type" names an
    entry of table, with every required key of that entry and no other."""
    _check_type(spec, dict, pointer)
    if "type" not in spec:
        raise ConfigError(f"missing {what} type", pointer=f"{pointer}/type")
    kind = spec["type"]
    if not isinstance(kind, str) or kind not in table:
        raise ConfigError(f"unknown {what} type {kind!r}",
                          pointer=f"{pointer}/type")
    required, optional = table[kind][:2]
    _keys(spec, required, ("type", *optional), f"{what} type {kind!r}",
          pointer)
    return kind


def _build_body(spec, pointer):
    kind = _typed(spec, _BODY_TYPES, "body", pointer)
    args = {key: value for key, value in spec.items() if key != "type"}
    for key, value in args.items():
        if not _numeric(value):
            raise ConfigError(f"{key} must be numeric",
                              pointer=f"{pointer}/{key}")
    try:
        return _BODY_TYPES[kind][2](**args)
    except (ValueError, TypeError, DimensionError) as exc:
        raise ConfigError(f"invalid body: {exc}", pointer=pointer)


def _build_weight(spec, pointer):
    kind = _typed(spec, _WEIGHT_TYPES, "weight", pointer)
    if kind == "body":
        return _build_body(spec["body"], f"{pointer}/body").weight()
    if kind == "power":
        _check_type(spec["m"], (int, float), f"{pointer}/m")
        if spec["m"] <= 0:
            raise ConfigError("m must be positive", pointer=f"{pointer}/m")
        return Weight.power_family(spec["m"])
    if kind == "constant":
        return Weight.constant()
    _check_type(spec["w"], str, f"{pointer}/w")
    try:
        fn = line_function(parse_expr(spec["w"]))
    except ExprError as exc:
        raise ConfigError(f"bad weight expression: {exc}",
                          pointer=f"{pointer}/w")
    return Weight.from_callable(fn)


def _admissible(w, pointer):
    """w, refused as a config error unless `check_weight` passes it."""
    diag = check_weight(w)
    failed = [f"{name} ({fn} positive and convex)" for name, fn, ok in (
        ("cond1", "1/W(t)", diag.cond1_ok),
        ("cond2", "|t|/W(-1/t)", diag.cond2_ok)) if not ok]
    if failed:
        raise ConfigError(f"weight fails {' and '.join(failed)}",
                          pointer=pointer)
    return w


def _require(cfg, key, types):
    _check_type(cfg[key], types, f"/{key}")
    return cfg[key]


def _count(cfg, key, default):
    """The optional positive integer cfg[key]."""
    value = cfg.get(key, default)
    _check_type(value, int, f"/{key}")
    if value < 1:
        raise ConfigError(f"{key} must be positive", pointer=f"/{key}")
    return value


def _parse_f(cfg, function):
    """cfg["f"] made callable by function, and its text."""
    text = _require(cfg, "f", str)
    try:
        return function(parse_expr(text)), text
    except ExprError as exc:
        raise ConfigError(f"bad expression: {exc}", pointer="/f")


# ----------------------------------------------------------------- emission

def _atomic_write(path, text):
    """text into path through a fresh temp file, which open creates with
    the mode that the umask gives, renamed over path."""
    d = os.path.dirname(os.path.abspath(path))
    os.makedirs(d, exist_ok=True)
    tmp = os.path.join(d, f".tmp-{os.urandom(8).hex()}")
    fh = open(tmp, "x")
    try:
        with fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _json(obj):
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _csv(header, rows):
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(
            _FLOAT(v) if isinstance(v, float) else str(v) for v in row))
    return "\n".join(lines) + "\n"


def _residual_rows(body, f, approx):
    theta = 2 * np.pi * np.arange(_RESIDUAL_ROWS) / _RESIDUAL_ROWS
    pts = body.boundary_at(theta)[0]
    fv = f(pts)
    av = approx(pts)
    return [(float(th), float(p[0]), float(p[1]), float(a), float(b),
             float(abs(a - b)))
            for th, p, a, b in zip(theta, pts, fv, av)]


_RESIDUAL_HEADER = ["theta", "x", "y", "f", "approx", "abs_residual"]


# ----------------------------------------------------------------- subcommands
# each runner returns its artifacts, {file name: text}, in manifest order

def _run_approx(cfg):
    body = _build_body(_require(cfg, "body", dict), "/body")
    f, ftext = _parse_f(cfg, boundary_function)
    n = _require(cfg, "n", int)
    if n < 5:
        raise ConfigError("n must be at least 5", pointer="/n")
    route = cfg.get("route", "planar")
    if route not in ("geometric", "planar"):
        raise ConfigError("route must be geometric|planar", pointer="/route")
    if route == "geometric":
        if n < 8:
            raise ConfigError("the geometric route needs n at least 8",
                              pointer="/n")
        if not body.is_smooth():
            raise ConfigError("the geometric route needs a smooth body",
                              pointer="/route")
        pair = approximate_theorem1(body, f, n)
    else:
        if n > _DEGREE_CAP:
            raise ConfigError(f"the planar route needs n at most {_DEGREE_CAP}",
                              pointer="/n")
        pair = approximate_theorem2(body, f, n)
    return {"pair.json": _json({"route": pair.route,
                                "h_even": pair.h_even.to_json_obj(),
                                "h_odd": pair.h_odd.to_json_obj(),
                                "report": pair.report.to_json_obj()}),
            "residuals.csv": _csv(_RESIDUAL_HEADER,
                                  _residual_rows(body, f, pair))}


def _run_unity(cfg):
    body = _build_body(_require(cfg, "body", dict), "/body")
    if not body.is_smooth():
        raise ConfigError("unity needs a smooth body", pointer="/body")
    n = _require(cfg, "n", int)
    if n % 2 != 0:
        raise ConfigError("n is the output degree and must be even",
                          pointer="/n")
    if n < 8:
        raise ConfigError("n must be at least 8", pointer="/n")
    hp = approximate_unity(body, n // 2)
    report = unity_error_report(body, hp)
    one = lambda p: np.ones(len(p))
    return {"unity.json": _json({"polynomial": hp.to_json_obj(),
                                 "report": report.to_json_obj()}),
            "residuals.csv": _csv(_RESIDUAL_HEADER,
                                  _residual_rows(body, one, hp))}


def _run_equilibrium(cfg):
    w = _admissible(_build_weight(_require(cfg, "weight", dict), "/weight"),
                    "/weight")
    lam = _require(cfg, "lam", (int, float))
    if lam <= 1:
        raise ConfigError("lam must be greater than 1", pointer="/lam")
    grid = _count(cfg, "grid", 512)
    a, b = mrs_support(w, lam)
    em = density(w, lam, (a, b))
    xs = np.linspace(a, b, grid)
    return {"density.csv": _csv(["x", "density"], [
                (float(x), float(v)) for x, v in zip(xs, em.density(xs))]),
            "equilibrium.json": _json({
                "lam": float(lam),
                "support": [a, b],
                "mass": em.mass(),
                "robin_constant": em.robin_constant(),
                "identity_deviation": equilibrium_check(em),
                "support_residual": em.support_residual(),
            })}


def _run_wapprox(cfg):
    if ("weight" in cfg) == ("body" in cfg):
        raise ConfigError("exactly one of weight/body is required",
                          pointer="/weight")
    w = (_admissible(_build_weight(cfg["weight"], "/weight"), "/weight")
         if "weight" in cfg
         else _admissible(_build_body(cfg["body"], "/body").weight(), "/body"))
    f, ftext = _parse_f(cfg, line_function)
    n_list = _require(cfg, "n_list", list)
    if not n_list:
        raise ConfigError("n_list must not be empty", pointer="/n_list")
    for i, n in enumerate(n_list):
        _check_type(n, int, f"/n_list/{i}")
        if n < 0 or n % 2 != 0:
            raise ConfigError("degrees must be even and nonnegative",
                              pointer=f"/n_list/{i}")
        if n > _DEGREE_CAP:
            raise ConfigError(f"degrees must be at most {_DEGREE_CAP}",
                              pointer=f"/n_list/{i}")
        if n in n_list[:i]:
            raise ConfigError(f"degree {n} is repeated", pointer=f"/n_list/{i}")
    cf = CompactifiedFunction.from_callable(f)
    rows = []
    coeffs = {}
    for n in n_list:
        wa = weighted_minimax(cf, w, n)
        rows.append((n, float(wa.sup_error)))
        coeffs[str(n)] = [float(c) for c in wa.monomial_coeffs()]
    return {"wapprox.csv": _csv(["n", "sup_error"], rows),
            "coefficients.json": _json({"f": ftext, "coefficients": coeffs})}


def _run_partition_diag(cfg, seed):
    d = _require(cfg, "d", int)
    if d not in (1, 2, 3):
        raise ConfigError("d must be 1, 2, or 3", pointer="/d")
    h = float(_require(cfg, "h", (int, float)))
    if not 0 < h <= 1:
        raise ConfigError("h must be in (0, 1]", pointer="/h")
    samples = _count(cfg, "samples", 10000)
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-4.0, 4.0, size=(samples, d))
    sums, overlap = partition_sum_and_overlap(pts, h)
    n_active = len(active_indices(h, d))
    return {"partition.csv": _csv(
        ["d", "h", "samples", "max_sum_deviation", "max_overlap",
         "active_count"],
        [(d, float(h), samples, float(np.max(np.abs(sums - 1.0))),
          int(np.max(overlap)), n_active)])}


def _run_check_weight(cfg):
    w = _build_weight(_require(cfg, "weight", dict), "/weight")
    diag = check_weight(w)
    return {"weight.json": _json({
        "ok": diag.ok,
        "cond1_ok": diag.cond1_ok,
        "cond2_ok": diag.cond2_ok,
        "rho": None if np.isinf(diag.rho) else float(diag.rho),
    })}


# ----------------------------------------------------------------- driver

# each subcommand's required top-level keys, optional keys and runner
_SUBCOMMANDS = {
    "approx": (("body", "f", "n"), ("route",), _run_approx),
    "unity": (("body", "n"), (), _run_unity),
    "equilibrium": (("weight", "lam"), ("grid",), _run_equilibrium),
    "wapprox": (("f", "n_list"), ("weight", "body"), _run_wapprox),
    "partition-diag": (("d", "h"), ("samples",), _run_partition_diag),
    "check-weight": (("weight",), (), _run_check_weight),
}


def run(subcommand, cfg, out=".", seed=0):
    """Execute one validated subcommand; returns the list of artifacts.
    Nothing is written unless every artifact was computed, and a write that
    fails is a config error."""
    t0 = time.perf_counter()
    if subcommand not in _SUBCOMMANDS:
        raise ConfigError(f"unknown subcommand {subcommand!r}",
                          pointer="/subcommand")
    required, optional, runner = _SUBCOMMANDS[subcommand]
    _check_type(cfg, dict, "/")
    _keys(cfg, required, optional, subcommand, "")
    artifacts = (runner(cfg, seed) if subcommand == "partition-diag"
                 else runner(cfg))
    digest = hashlib.sha256(
        json.dumps(cfg, sort_keys=True).encode()).hexdigest()
    try:
        for name, text in artifacts.items():
            _atomic_write(os.path.join(out, name), text)
        _atomic_write(os.path.join(out, "run_manifest.json"), _json({
            "subcommand": subcommand,
            "config_sha256": digest,
            "seed": seed,
            "versions": {"homapprox": __version__,
                         "numpy": np.__version__,
                         "scipy": scipy.__version__},
            "outputs": list(artifacts),
            "timings": {"total_s": time.perf_counter() - t0},
        }))
    except OSError as exc:
        raise ConfigError(f"cannot write artifacts: {exc}")
    return list(artifacts)


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="homapprox",
        description="homogeneous-polynomial approximation toolkit")
    parser.add_argument("subcommand", choices=sorted(_SUBCOMMANDS))
    parser.add_argument("--config", help="JSON config file")
    parser.add_argument("--out", default=".", help="output directory")
    parser.add_argument("--seed", type=int, default=0, help="sampling seed")
    args = parser.parse_args(argv)

    try:
        cfg = {}
        if args.config:
            try:
                with open(args.config) as fh:
                    text = fh.read()
            except OSError as exc:
                raise ConfigError(f"cannot read config: {exc}")
            try:
                cfg = json.loads(text)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"config is not valid JSON: {exc}")
        run(args.subcommand, cfg, out=args.out, seed=args.seed)
        return 0
    except ConfigError as exc:
        print(f"config error{' at ' + exc.pointer if exc.pointer else ''}: "
              f"{exc}", file=sys.stderr)
        return 3
    except (HomApproxError, ExprError, ValueError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
