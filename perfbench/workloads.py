"""The benchmark's three workloads: inputs, timed program calls and checks.

``build(name, seed, root, workdir)`` makes a workload's cases.  Each case has a
``run`` that makes only program calls (this is what ``wall_s`` times), an
``evaluate`` that times the public evaluation of the result, a ``check`` that
scores the result with the oracle in ``oracle.py`` and a ``fingerprint`` that
later passes compare with the checked first result.  The seed draws only
target parameters and the partition-diag sampling seed; body kinds and
degrees never change.
"""

from __future__ import annotations

import functools
import json
import os
import shutil
import sys
import time
from dataclasses import dataclass, field

import numpy as np

import homapprox as hx
from homapprox.polys import HomogeneousPoly

import oracle

EVAL_POINTS_STRIDE = 64      # eval batch: every 64th grid point (2048 points)
EVAL_MIN_S = 0.1             # repeat the batch for at least this long ...
EVAL_MIN_CALLS = 3           # ... and at least this often, per case


@dataclass
class Outcome:
    problems: list = field(default_factory=list)   # failed checks -> incorrect
    dishonest: bool = False          # report-honesty check failed
    oracle_err: float = None         # oracle sup error, when the case has one
    nonexact: bool = False           # oracle_err above the float floor
    eval_points: int = 0             # points per public evaluation call
    eval_calls: list = field(default_factory=list)   # seconds of each call


def _no_eval(result, out):
    return None


def _no_cleanup(result):
    pass


@dataclass
class Case:
    name: str
    run: object                      # () -> result; only program calls
    check: object                    # (result, public values, Outcome) -> None
    fingerprint: object              # result -> bytes, equal for equal results
    evaluate: object = _no_eval      # (result, Outcome) -> public values
    cleanup: object = _no_cleanup    # result -> None, after the checks
    ladder: str = None               # cases of one ladder, in degree order
    strict: bool = False             # criterion 6: strictly decreasing


def _json_bytes(obj):
    return json.dumps(obj, sort_keys=True, default=repr).encode()


@functools.cache
def _grid(kind, **kw):
    return oracle.boundary_grid(kind, **kw)


def _timed_eval(fn, pts, out):
    start = time.perf_counter()
    while (len(out.eval_calls) < EVAL_MIN_CALLS
           or time.perf_counter() - start < EVAL_MIN_S):
        t0 = time.perf_counter()
        vals = fn(pts)
        out.eval_calls.append(time.perf_counter() - t0)
    out.eval_points = len(pts)
    return vals


def _score(out, f_ld, pair_terms, pts, reported, label):
    """Oracle sup error of an exported pair, honesty of the reported one."""
    vals = oracle.pair_eval(pair_terms, pts)
    err = oracle.sup_error(f_ld, vals)
    scale = float(np.max(np.abs(f_ld)))
    out.oracle_err = err
    out.nonexact = oracle.is_nonexact(err, scale)
    if not oracle.honest(reported, err, scale):
        out.dishonest = True
        print(f"  {label}: reported sup error {reported:.6g} is "
              f"{100 * (1 - reported / err):.2f}% below the oracle's {err:.6g}",
              file=sys.stderr)
    return vals


def _check_agree(out, public, reference, label):
    ok, dev = oracle.agrees(public, reference)
    if not ok:
        out.problems.append(f"{label}: public evaluation deviates by {dev:.3g}")


def _pair_case(name, route, grid_kind, grid_kw, body, f, n, exact=False,
               ladder=None):
    """One approximate_theorem1/2 call and its checks."""
    if route == "planar":
        degs = (n, n - 1) if n % 2 == 0 else (n - 1, n)
    else:
        degs = (2 * n, 2 * n + 1)
    @functools.cache
    def reference():            # built at the first check, not in set-up
        pts = _grid(grid_kind, **grid_kw)
        return pts, f(pts.astype(oracle.LD))

    def run():
        if route == "planar":
            return hx.approximate_theorem2(body, f, n)
        return hx.approximate_theorem1(body, f, n)

    def evaluate(pair, out):
        return _timed_eval(pair, _grid(grid_kind, **grid_kw)[::EVAL_POINTS_STRIDE],
                           out)

    def fingerprint(pair):
        return _json_bytes([list(pair.degrees), pair.h_even.to_json_obj(),
                            pair.h_odd.to_json_obj(), pair.report.to_json_obj()])

    def check(pair, public, out):
        if tuple(pair.degrees) != degs:
            out.problems.append(f"{name}: degrees {pair.degrees} != {degs}")
            return
        terms = [(pair.h_even.to_json_obj(), degs[0]),
                 (pair.h_odd.to_json_obj(), degs[1])]
        pts, f_ld = reference()
        try:
            ref = _score(out, f_ld, terms, pts, pair.report.sup_error, name)
        except ValueError as exc:         # parity / homogeneity
            out.problems.append(f"{name}: {exc}")
            return
        _check_agree(out, public, ref[::EVAL_POINTS_STRIDE], name)
        scale = max(1.0, float(np.max(np.abs(f_ld))))
        if exact and out.oracle_err > oracle.EXACT_TOL * scale:
            out.problems.append(f"{name}: exact target off by {out.oracle_err:.3g}")
        if route == "geometric":
            ex = pair.report.extras
            bound = ex["weierstrass_sup_error"] + ex["unity_triangle_bound"]
            if out.oracle_err > bound:
                out.problems.append(
                    f"{name}: sup error {out.oracle_err:.6g} above the "
                    f"triangle bound {bound:.6g}")

    return Case(name, run, check, fingerprint, evaluate, ladder=ladder)


def _planar(rng):
    c = float(rng.uniform(0.5, 2.0))
    a, b = (float(v) for v in rng.uniform(0.95, 1.05, 2))
    disk, ellipse, square = (hx.ConvexBody.disk(), hx.ConvexBody.ellipse(2.0, 1.0),
                             hx.ConvexBody.square())
    const = lambda p: np.full(len(p), c, dtype=p.dtype)
    ec_ab = lambda p: np.exp(a * p[:, 0]) * np.cos(b * p[:, 1])
    # the square cases fail the report-honesty check today, so their targets
    # do not depend on the seed: the failed share is the same on every seed
    ec = lambda p: np.exp(p[:, 0]) * np.cos(p[:, 1])
    absx = lambda p: np.abs(p[:, 0])
    ell = {"axes": (2.0, 1.0)}
    return [
        _pair_case("disk-const-17", "planar", "disk", {}, disk, const, 17,
                   exact=True),
        _pair_case("ellipse-expcos-17", "planar", "ellipse", ell, ellipse,
                   ec_ab, 17),
        _pair_case("square-absx-8", "planar", "square", {}, square, absx, 8,
                   ladder="square-absx"),
        _pair_case("square-absx-16", "planar", "square", {}, square, absx, 16,
                   ladder="square-absx"),
        _pair_case("square-expcos-16", "planar", "square", {}, square, ec, 16,
                   ladder="square-expcos"),
        _pair_case("square-expcos-32", "planar", "square", {}, square, ec, 32,
                   ladder="square-expcos"),
    ]


def _geometric(rng):
    b, c = (float(v) for v in rng.uniform(0.97, 1.03, 2))
    ellipse, disk, pball = (hx.ConvexBody.ellipse(2.0, 1.0), hx.ConvexBody.disk(),
                            hx.ConvexBody.pnorm_ball(4))
    # criterion 8's ladder, with the seed left out: for exp(a x) with a a few
    # percent below 1 the n=64 error exceeds the n=32 one (see CHANGES.md)
    ex = lambda p: np.exp(p[:, 0])
    ec = lambda p: np.exp(b * p[:, 0]) * np.cos(c * p[:, 1])
    ell = {"axes": (2.0, 1.0)}
    cases = [_pair_case(f"ellipse-exp-{n}", "geometric", "ellipse", ell,
                        ellipse, ex, n, ladder="ellipse-exp")
             for n in (16, 32, 64)]
    cases.append(_pair_case("disk-expcos-32", "geometric", "disk", {}, disk,
                            ec, 32))
    cases.append(_pair_case("pnorm4-expcos-32", "geometric", "pnorm",
                            {"p": 4.0}, pball, ec, 32))
    return cases


# --------------------------------------------------------------- configs

# closed-form twins of the shipped configs' expressions, keyed by their text
_TARGETS_XY = {"exp(x)*cos(y)": lambda x, y: np.exp(x) * np.cos(y)}
_TARGETS_T = {"1/(1+t^2)": lambda t: 1 / (1 + t * t)}


def _read(path):
    with open(path, "rb") as fh:
        return fh.read()


def _load(path):
    with open(path) as fh:
        return json.load(fh)


def _degree(terms):
    return sum(terms[0]["exponents"]) if terms else 0


def _config_case(sub, cfg, workdir, part_seed):
    """One shipped config, run twice into fresh directories, and its checks."""
    counter = [0]

    def run():
        counter[0] += 1
        outs = []
        for tag in ("a", "b"):
            out = os.path.join(workdir, f"{sub}-{counter[0]}{tag}")
            os.makedirs(out)
            arts = hx.cli.run(sub, cfg, out=out, seed=part_seed)
            outs.append((out, arts))
        return outs

    def check(outs, public, out):
        _check_config(sub, cfg, outs, public, out)

    def evaluate(outs, out):
        return _eval_config(sub, cfg, outs[0][0], out)

    def fingerprint(outs):
        return _json_bytes([[arts, [_read(os.path.join(d, a)).decode("latin-1")
                                    for a in arts]] for d, arts in outs])

    def cleanup(outs):
        for d, _ in outs:
            shutil.rmtree(d, ignore_errors=True)

    return Case(f"config-{sub}", run, check, fingerprint, evaluate, cleanup)


def _config_grid(sub, cfg):
    body = cfg["body"]
    if sub == "approx":
        return _grid(body["type"], axes=tuple(body.get("semi_axes", (1.0, 1.0))))
    return _grid("disk")


def _eval_config(sub, cfg, da, out):
    """Reload the exported pair (approx) or polynomial (unity) and time it."""
    if sub == "approx":
        obj = _load(os.path.join(da, "pair.json"))
        n = cfg["n"]
        degs = (n, n - 1) if n % 2 == 0 else (n - 1, n)
        he = HomogeneousPoly.from_json_obj(2, degs[0], obj["h_even"])
        ho = HomogeneousPoly.from_json_obj(2, degs[1], obj["h_odd"])
        fn = lambda q: he(q) + ho(q)
    elif sub == "unity" and cfg["body"]["type"] == "disk":
        terms = _load(os.path.join(da, "unity.json"))["polynomial"]
        fn = HomogeneousPoly.from_json_obj(2, cfg["n"], terms)
    else:
        return None
    return _timed_eval(fn, _config_grid(sub, cfg)[::EVAL_POINTS_STRIDE], out)


def _check_config(sub, cfg, outs, public, out):
    (da, arts_a), (db, arts_b) = outs
    p = out.problems
    if arts_a != arts_b:
        p.append(f"{sub}: artifact lists differ {arts_a} vs {arts_b}")
        return
    for art in arts_a:
        if _read(os.path.join(da, art)) != _read(os.path.join(db, art)):
            p.append(f"{sub}: {art} differs between two executions")
    if _load(os.path.join(da, "run_manifest.json"))["outputs"] != arts_a:
        p.append(f"{sub}: manifest outputs do not match the artifacts")

    if sub == "approx":
        pts = _config_grid(sub, cfg)
        f = _TARGETS_XY[cfg["f"]]
        f_ld = f(*pts.astype(oracle.LD).T)
        obj = _load(os.path.join(da, "pair.json"))
        n = cfg["n"]
        degs = (n, n - 1) if n % 2 == 0 else (n - 1, n)
        terms = [(obj["h_even"], degs[0]), (obj["h_odd"], degs[1])]
        ref = _score(out, f_ld, terms, pts, obj["report"]["sup_error"], sub)
        _check_agree(out, public, ref[::EVAL_POINTS_STRIDE], sub)
    elif sub == "unity":
        if cfg["body"]["type"] != "disk":
            p.append("unity: oracle grid assumes the disk")
            return
        pts = _config_grid(sub, cfg)
        obj = _load(os.path.join(da, "unity.json"))
        terms = obj["polynomial"]
        deg = cfg["n"]
        if _degree(terms) != deg or deg % 2:
            p.append(f"unity: degree {_degree(terms)} != even {deg}")
            return
        ref = _score(out, np.ones(len(pts), dtype=oracle.LD),
                     [(terms, deg), ([], 1)], pts, obj["report"]["sup_error"], sub)
        _check_agree(out, public, ref[::EVAL_POINTS_STRIDE], sub)
    elif sub == "equilibrium":
        eq = _load(os.path.join(da, "equilibrium.json"))
        if cfg["weight"] != {"type": "body", "body": {"type": "disk"}}:
            p.append("equilibrium: closed-form support assumes the disk weight")
            return
        b = oracle.mrs_half_width_disk(cfg["lam"])
        lo, hi = eq["support"]
        if max(abs(lo + b), abs(hi - b)) > 1e-9 * b:
            p.append(f"equilibrium: support {eq['support']} != [-{b}, {b}]")
        if abs(eq["mass"] - 1.0) > 1e-8:
            p.append(f"equilibrium: mass {eq['mass']} != 1")
        if not eq["identity_deviation"] < 1e-4:
            p.append(f"equilibrium: identity deviation {eq['identity_deviation']}")
        rows = _read(os.path.join(da, "density.csv")).decode().split("\n")[1:-1]
        xs, dens = np.array([[float(v) for v in r.split(",")] for r in rows]).T
        mass = float(np.sum((dens[1:] + dens[:-1]) * np.diff(xs)) / 2)
        if (len(rows) != cfg.get("grid", 512) or not np.all(dens >= 0)
                or abs(xs[0] + b) + abs(xs[-1] - b) > 1e-9 * b
                or abs(mass - 1.0) > 1e-2):
            p.append(f"equilibrium: density.csv off (trapezoid mass {mass})")
    elif sub == "wapprox":
        if cfg.get("body") != {"type": "disk"}:
            p.append("wapprox: oracle assumes the disk weight")
            return
        pts = _grid("disk")
        f_ld = _vanishing_at_inf_on_circle(_TARGETS_T[cfg["f"]], pts)
        coeffs = _load(os.path.join(da, "coefficients.json"))["coefficients"]
        for n in cfg["n_list"]:
            a = coeffs[str(n)]
            terms = [{"exponents": [n - k, k], "coeff": c} for k, c in enumerate(a)]
            err = oracle.sup_error(f_ld, oracle.hom_eval(terms, n, pts))
            if err > oracle.EXACT_TOL:
                p.append(f"wapprox: n={n} exact target off by {err:.3g}")
    elif sub == "partition-diag":
        header, row = _read(os.path.join(da, "partition.csv")).decode().split("\n")[:2]
        rec = dict(zip(header.split(","), row.split(",")))
        d, h = int(rec["d"]), float(rec["h"])
        if (d, h, int(rec["samples"])) != (cfg["d"], cfg["h"], cfg["samples"]):
            p.append(f"partition-diag: echoed config {rec} is wrong")
        if not float(rec["max_sum_deviation"]) <= 1e-12:
            p.append(f"partition-diag: sum deviation {rec['max_sum_deviation']}")
        if not int(rec["max_overlap"]) <= 2 ** d:
            p.append(f"partition-diag: overlap {rec['max_overlap']} > 2^{d}")
        if not 0 < int(rec["active_count"]) <= 8 ** d / (2 * h ** d):
            p.append(f"partition-diag: active count {rec['active_count']}")
    elif sub == "check-weight":
        wj = _load(os.path.join(da, "weight.json"))
        if cfg["weight"] != {"type": "body", "body": {"type": "square"}}:
            p.append("check-weight: closed form assumes the unit square")
            return
        # the unit square's weight W(t) = 1/max(1, |t|) is admissible, rho = 1
        if not (wj["ok"] and wj["cond1_ok"] and wj["cond2_ok"]):
            p.append(f"check-weight: square weight rejected {wj}")
        if wj["rho"] is None or abs(wj["rho"] - 1.0) > 1e-9:
            p.append(f"check-weight: rho {wj['rho']} != 1")
    else:
        p.append(f"no checks for config {sub!r}")


def _vanishing_at_inf_on_circle(g, pts):
    """g(t) at t = y/x on unit-circle points, for g with limit 0 at +-inf.

    On the unit circle W(t)^n t^k = x^(n-k) y^k for the disk weight, so a
    weighted approximant on the line is checked as a homogeneous form here;
    the points (0, +-1) stand for t = +-infinity.
    """
    x, y = pts.astype(oracle.LD).T
    out = np.zeros(len(pts), dtype=oracle.LD)
    fin = x != 0
    out[fin] = g(y[fin] / x[fin])
    return out


def _bump_case(width, n, w):
    """Criterion 6's single-parity weighted minimax fit of a bump on the disk."""
    def bump(t):
        t = np.asarray(t)
        u = np.clip(t / width, -1.0, 1.0)
        out = np.zeros_like(u)
        m = np.abs(u) < 1
        out[m] = np.exp(-1.0 / (1.0 - u[m] ** 2))
        return out

    cf = hx.CompactifiedFunction(bump, 0.0, 0.0)

    @functools.cache
    def reference():            # built at the first check, not in set-up
        pts = _grid("disk")
        return pts, _vanishing_at_inf_on_circle(bump, pts)

    def run():
        return hx.weighted_minimax(cf, w, n)

    def fingerprint(wa):
        return _json_bytes([[float(c) for c in wa.monomial_coeffs()],
                            float(wa.sup_error)])

    def check(wa, public, out):
        terms = [{"exponents": [n - k, k], "coeff": float(c)}
                 for k, c in enumerate(wa.monomial_coeffs())]
        pts, f_ld = reference()
        _score(out, f_ld, [(terms, n), ([], n + 1)], pts, wa.sup_error,
               f"minimax-bump-{n}")

    return Case(f"minimax-bump-{n}", run, check, fingerprint,
                ladder="minimax-bump", strict=True)


def _configs(rng, root, workdir):
    part_seed = int(rng.integers(0, 2 ** 31))
    width = float(rng.uniform(2.95, 3.05))
    cdir = os.path.join(root, "configs")
    cases = []
    for name in sorted(os.listdir(cdir)):
        cfg = _load(os.path.join(cdir, name))
        # parse each expression as a user of the CLI would, and check the
        # parsed tree against the oracle's closed-form twin of that text
        if "f" in cfg:
            node = hx.parse_expr(cfg["f"])
            probe = np.linspace(-1.5, 1.5, 7)
            if cfg["f"] in _TARGETS_XY:
                got = node(**{v: probe for v in node.variables()})
                want = _TARGETS_XY[cfg["f"]](probe, probe)
            else:
                got, want = node(t=probe), _TARGETS_T[cfg["f"]](probe)
            if not np.allclose(got, want, rtol=1e-14, atol=0):
                raise ValueError(f"parsed {cfg['f']!r} disagrees with its twin")
        cases.append(_config_case(name[:-len(".json")], cfg, workdir, part_seed))
    w = hx.ConvexBody.disk().weight()
    cases += [_bump_case(width, n, w) for n in (8, 16, 32, 64)]
    return cases


def build(name, seed, root, workdir):
    """Cases of one workload; inputs depend on the seed only as documented."""
    rng = np.random.default_rng(seed)
    if name == "planar":
        return _planar(rng)
    if name == "geometric":
        return _geometric(rng)
    if name == "configs":
        return _configs(rng, root, workdir)
    raise ValueError(f"unknown workload {name!r}")
