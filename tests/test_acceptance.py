"""Quantitative acceptance gate for the whole toolkit.

Each test checks one shipped guarantee at desk-scale degrees, is timed
against a hard budget, and prints a single pass/fail line so the suite
output doubles as a report.
"""

import json
import os
import time

import numpy as np
import pytest

from homapprox import (ConvexBody, CompactifiedFunction, HomogeneousPoly,
                       Weight, approximate_theorem1, approximate_theorem2,
                       density, homogenize_even, linear_form_power,
                       mrs_support, equilibrium_check, weighted_minimax)
from homapprox.cli import run as cli_run
from homapprox.partition import partition_sum_and_overlap, active_indices
from homapprox.polys import growth_bound_check

_CONFIG_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "configs")


class _Gate:
    """Timer + reporter: prints '[criterion N] PASS (x.x s / budget)'."""

    def __init__(self, number, budget_s):
        self.number = number
        self.budget = budget_s

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.t0
        status = "PASS" if exc_type is None and elapsed < self.budget else "FAIL"
        print(f"\n[criterion {self.number}] {status} "
              f"({elapsed:.1f} s / {self.budget:.0f} s budget)")
        if exc_type is None:
            assert elapsed < self.budget, (
                f"criterion {self.number} exceeded its {self.budget} s budget")
        return False


def test_criterion_1_partition_of_unity():
    with _Gate(1, 10.0):
        rng = np.random.default_rng(101)
        for d in (1, 2, 3):
            for h in (1.0, 0.5, 0.1):
                pts = rng.uniform(-4.0, 4.0, size=(10_000, d))
                sums, overlap = partition_sum_and_overlap(pts, h)
                assert np.max(np.abs(sums - 1.0)) < 1e-12, (d, h)
                assert np.max(overlap) <= 2 ** d, (d, h)
                n_active = len(active_indices(h, d))
                assert n_active <= 8 ** d / (2 * h ** d), (d, h)


def test_criterion_2_homogenization_lift_and_suppression():
    with _Gate(2, 30.0):
        rng = np.random.default_rng(202)
        body = ConvexBody.disk()
        # part A: hyperplane agreement for 100 random even polynomials
        for _ in range(100):
            exps = [(a, b) for a in range(5) for b in range(5)
                    if (a + b) % 2 == 0 and a + b <= 4]
            # graded parts: row d holds the degree-d part, index = power of y
            parts = np.zeros((5, 5))
            for (ea, eb), c in zip(exps, rng.standard_normal(len(exps))):
                parts[ea + eb, eb] = c
            th = rng.uniform(0, 2 * np.pi)
            a = np.array([np.cos(th), np.sin(th)])
            line = body.support_line(a)
            h = homogenize_even(parts, line, 6)
            e = line.tangent_frame()
            s = rng.uniform(-3, 3, 50)
            pts = line.foot()[None, :] + s[:, None] * e[None, :]
            p = sum(HomogeneousPoly(row[:d + 1])(pts)
                    for d, row in enumerate(parts))
            scale = 1 + np.max(np.abs(p))
            assert np.max(np.abs(h(pts) - p)) < 1e-10 * scale
        # part B: off-patch suppression bound (2/3)^{2n}
        delta = body.delta()
        for n in (4, 8, 16):
            th = rng.uniform(0, 2 * np.pi)
            a = np.array([np.cos(th), np.sin(th)])
            line = body.support_line(a)
            e = line.tangent_frame()
            # ambient even polynomial sum_k a_k <x,e>^{2k}, as graded parts
            parts = np.zeros((2 * n + 1, 2 * n + 1))
            parts[0, 0] = float(rng.standard_normal())
            for k in range(1, n + 1):
                c = float(rng.standard_normal())
                parts[2 * k, :2 * k + 1] = c * linear_form_power(e, 2 * k).vec
            h = homogenize_even(parts, line, 2 * n)
            # normalize |h| <= 1 on the on-patch segment of the line
            s = np.linspace(-4 * delta, 4 * delta, 2001)
            seg = a[None, :] + s[:, None] * e[None, :]
            h = HomogeneousPoly(1.0 / np.max(np.abs(h(seg))) * h.vec)
            # sample strictly off-patch and pull x/t back into the body
            s2 = rng.uniform(4 * delta + 1e-9, 25.0, 1000)
            s2 *= rng.choice([-1.0, 1.0], 1000)
            x = a[None, :] + s2[:, None] * e[None, :]
            t = body.gauge(x)
            vals = np.abs(h(x / t[:, None]))
            assert np.max(vals) <= (2.0 / 3.0) ** (2 * n) * (1 + 1e-6), n


def test_criterion_3_growth_bound():
    with _Gate(3, 5.0):
        rng = np.random.default_rng(303)
        s = np.linspace(-1, 1, 2001)
        for _ in range(100):
            n = int(rng.integers(1, 13))
            c = rng.standard_normal(n + 1)
            c /= np.max(np.abs(np.polynomial.polynomial.polyval(s, c)))
            xs = rng.uniform(1.0 + 1e-9, 4.0, 1000)
            xs *= rng.choice([-1.0, 1.0], 1000)
            for x in (float(np.min(xs)), float(np.max(xs))):
                val, bound, ok = growth_bound_check(c, 1.0, x)
                assert ok
            vals = np.abs(np.polynomial.polynomial.polyval(xs, c))
            bounds = (2.0 * np.abs(xs)) ** n
            assert np.all(vals <= bounds)


def test_criterion_4_equilibrium_engine():
    with _Gate(4, 60.0):
        # arcsine case, exact references
        em = density(Weight.constant(), 1.0, (-1.0, 1.0))
        xs = np.linspace(-0.995, 0.995, 401)
        arcsine = 1.0 / (np.pi * np.sqrt(1 - xs ** 2))
        assert np.max(np.abs(em.density(xs) - arcsine)) < 1e-8 * np.max(arcsine)
        assert abs(em.mass() - 1.0) < 1e-8
        pot = em.log_integral(np.linspace(-0.9, 0.9, 101))
        assert np.max(np.abs(pot - np.log(0.5))) < 1e-8
        # disk weight family
        w = ConvexBody.disk().weight()
        bs = []
        for lam in (2.0, 1.5, 1.2):
            a, b = mrs_support(w, lam)
            assert abs(a + b) < 1e-8
            em = density(w, lam, (a, b))
            assert abs(em.mass() - 1.0) < 1e-6
            assert equilibrium_check(em) < 1e-4
            bs.append(b)
        assert bs[0] < bs[1] < bs[2]


def test_criterion_5_weighted_homogeneous_identity():
    with _Gate(5, 20.0):
        rng = np.random.default_rng(505)
        bodies = [ConvexBody.disk(), ConvexBody.ellipse(2.0, 1.0),
                  ConvexBody.square()]
        t = np.concatenate([np.linspace(-40, 40, 321),
                            np.linspace(-1.5, 1.5, 81)])
        count = 0
        for body in bodies:
            w = body.weight()
            pts = body.slope_points(t)
            for n in range(2, 33, 2):
                wn = w.W(t) ** n
                lim = w.rho ** n
                for _ in range(21):
                    a = rng.standard_normal(n + 1)
                    h = HomogeneousPoly(a)
                    ref = wn * np.polynomial.polynomial.polyval(t, a)
                    scale = 1 + np.max(np.abs(ref))
                    assert np.max(np.abs(h(pts) - ref)) < 1e-10 * scale
                    assert np.max(np.abs(h(-pts) - ref)) < 1e-10 * scale
                    top = np.array([0.0, w.rho])
                    assert abs(h(top) - a[n] * lim) < 1e-10 * scale
                    count += 1
        assert count >= 1000


def test_criterion_6_weighted_density_ladder():
    with _Gate(6, 120.0):
        w = ConvexBody.disk().weight()

        def bump(t):
            t = np.asarray(t, dtype=float)
            u = np.clip(t / 3.0, -1.0, 1.0)
            out = np.zeros_like(u)
            m = np.abs(u) < 1
            out[m] = np.exp(-1.0 / (1.0 - u[m] ** 2))
            return out

        f = CompactifiedFunction(bump, 0.0, 0.0)
        errs = [weighted_minimax(f, w, n).sup_error for n in (8, 16, 32, 64)]
        assert all(b < a for a, b in zip(errs, errs[1:])), errs
        assert errs[-1] < 5e-2


def _decreasing_with_floor(errs, floor=1e-10):
    return all(b <= a * (1 + 1e-9) or (a < floor and b < floor)
               for a, b in zip(errs, errs[1:]))


def test_criterion_7_pair_approximation_end_to_end():
    with _Gate(7, 300.0):
        circle = ConvexBody.disk()
        ellipse = ConvexBody.ellipse(2.0, 1.0)
        square = ConvexBody.square()
        targets = {
            "1": lambda p: np.ones(len(p)),
            "x": lambda p: p[:, 0],
            "absx": lambda p: np.abs(p[:, 0]),
            "expcos": lambda p: np.exp(p[:, 0]) * np.cos(p[:, 1]),
        }
        ladders = {
            (circle, "default"): (5, 9, 17),
            (ellipse, "default"): (5, 9, 17),
            (square, "default"): (8, 16, 32),
            (square, "expcos"): (16, 32, 80),
        }
        for body in (circle, ellipse, square):
            for name, f in targets.items():
                key = (body, name if (body, name) in ladders else "default")
                errs = []
                for n in ladders[key]:
                    pair = approximate_theorem2(body, f, n)
                    errs.append(pair.report.sup_error)
                assert _decreasing_with_floor(errs), (body.kind, name, errs)
                assert errs[-1] < 1e-1, (body.kind, name, errs)
                if body is circle and name == "1":
                    assert errs[-1] < 1e-6


def test_criterion_8_geometric_route_rate():
    with _Gate(8, 300.0):
        ellipse = ConvexBody.ellipse(2.0, 1.0)
        f = lambda p: np.exp(p[:, 0])
        errs = []
        for n in (8, 16, 32):
            pair = approximate_theorem1(ellipse, f, n)
            errs.append(pair.report.sup_error)
        assert errs[2] < errs[1] < errs[0], errs
        # tau = 0.5, eps = 1: the sqrt(n)-scaled errors stay bounded
        scaled = [e * np.sqrt(n) for e, n in zip(errs, (8, 16, 32))]
        assert max(scaled) <= scaled[0] * (1 + 1e-9), scaled


def test_criterion_9_determinism(tmp_path):
    with _Gate(9, 300.0):
        for name in sorted(os.listdir(_CONFIG_DIR)):
            sub = name[:-len(".json")]
            with open(os.path.join(_CONFIG_DIR, name)) as fh:
                cfg = json.load(fh)
            outs = []
            for tag in ("a", "b"):
                out = tmp_path / f"{sub}-{tag}"
                out.mkdir()
                artifacts = cli_run(sub, cfg, out=str(out), seed=0)
                outs.append((out, artifacts))
            assert outs[0][1] == outs[1][1]
            for artifact in outs[0][1]:
                b0 = (outs[0][0] / artifact).read_bytes()
                b1 = (outs[1][0] / artifact).read_bytes()
                assert b0 == b1, (sub, artifact)
