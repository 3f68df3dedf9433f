"""End-to-end homogeneous-pair approximation on planar boundaries."""

import numpy as np
import pytest

from homapprox import (ConvexBody, approximate_theorem1, approximate_theorem2,
                       EscalationError)


def f_one(p):
    return np.ones(len(p))


def f_x(p):
    return p[:, 0]


def f_absx(p):
    return np.abs(p[:, 0])


def f_expcos(p):
    return np.exp(p[:, 0]) * np.cos(p[:, 1])


def test_constant_on_circle_is_near_exact():
    pair = approximate_theorem2(ConvexBody.disk(), f_one, 8)
    assert pair.report.sup_error < 1e-6
    assert pair.degrees == (8, 7)


def test_linear_on_circle_is_near_exact():
    errs = [approximate_theorem2(ConvexBody.disk(), f_x, n).report.sup_error
            for n in (5, 9, 17)]
    assert max(errs) < 1e-8


def test_absx_on_square_ladder_decreases():
    errs = []
    for n in (8, 16, 32):
        pair = approximate_theorem2(ConvexBody.square(), f_absx, n)
        errs.append(pair.report.sup_error)
    assert errs[2] < errs[1] < errs[0]
    assert errs[2] < 0.1


def test_pair_parity_is_exact():
    pair = approximate_theorem2(ConvexBody.ellipse(2.0, 1.0), f_expcos, 9)
    rng = np.random.default_rng(8)
    x = rng.uniform(-1.5, 1.5, size=(100, 2))
    he, ho = pair.h_even, pair.h_odd
    se = 1 + np.max(np.abs(he(x)))
    so = 1 + np.max(np.abs(ho(x)))
    assert np.max(np.abs(he(-x) - he(x))) < 1e-9 * se
    assert np.max(np.abs(ho(-x) + ho(x))) < 1e-9 * so


def test_validation_error_close_to_training_error():
    pair = approximate_theorem2(ConvexBody.ellipse(2.0, 1.0), f_absx, 9)
    rep = pair.report
    v = rep.extras["validation_sup_error"]
    assert v <= rep.sup_error * 1.1 + 1e-12


def test_theorem2_guards():
    with pytest.raises(ValueError):
        approximate_theorem2(ConvexBody.disk(), f_one, 4)


def test_theorem1_constant_matches_unity_error():
    pair = approximate_theorem1(ConvexBody.disk(), f_one, 8)
    assert pair.route == "geometric"
    assert pair.report.sup_error < 0.15
    assert pair.report.extras["weierstrass_sup_error"] < 1e-3


def test_theorem1_triangle_bound_holds():
    f = lambda p: p[:, 0] ** 2 - p[:, 1] ** 2
    pair = approximate_theorem1(ConvexBody.disk(), f, 16, m=2)
    rep = pair.report
    assert rep.sup_error <= rep.extras["unity_triangle_bound"] \
        + rep.extras["weierstrass_sup_error"] + 1e-9


def test_theorem1_escalation_error():
    with pytest.raises(EscalationError) as ei:
        approximate_theorem1(ConvexBody.disk(), f_absx, 5, m=2)
    assert ei.value.achieved > 0


def test_theorem1_m_cap_guard():
    with pytest.raises(ValueError):
        approximate_theorem1(ConvexBody.disk(), f_one, 5, m=10)


def test_routes_agree_on_smooth_problem():
    body = ConvexBody.disk()
    f = lambda p: p[:, 0] ** 2 + 2 * p[:, 1] ** 2
    planar = approximate_theorem2(body, f, 16)
    geometric = approximate_theorem1(body, f, 16, m=2)
    assert planar.report.sup_error < 1e-2
    assert geometric.report.sup_error < 5e-2


def test_pair_call_matches_stable_eval():
    body = ConvexBody.ellipse(2.0, 1.0)
    pair = approximate_theorem2(body, f_expcos, 9)
    pts = body.boundary_points(64)
    direct = pair.h_even(pts) + pair.h_odd(pts)
    assert np.max(np.abs(pair(pts) - direct)) < 1e-8 * (1 + np.max(np.abs(direct)))


def test_square_report_covers_vertices():
    """The vertex (1, 1), where the pair's error peaks, is in the report."""
    pair = approximate_theorem2(ConvexBody.square(), f_absx, 16)
    corner = np.array([[1.0, 1.0]])
    assert pair.report.sup_error >= abs(f_absx(corner)[0] - pair(corner)[0])


def test_exact_pair_takes_one_lp_solve():
    pair = approximate_theorem2(ConvexBody.disk(), f_one, 17)
    assert pair.report.extras["lp_solves"] == 1
    assert pair.report.extras["refine_converged"] is True
    # 4 (17 + 1) + 1 start nodes on two branches, two signs each
    assert pair.report.extras["lp_rows"] == 2 * 2 * (4 * 18 + 1)


@pytest.mark.parametrize("m0", [8, 2])
def test_theorem1_run_counters(monkeypatch, m0):
    """weierstrass_steps counts the +2 escalations past the initial m, and
    unity_cache_hits the graded parts whose multiplier came from the cache."""
    from homapprox import pipeline
    calls = []
    unity = pipeline.approximate_unity
    monkeypatch.setattr(pipeline, "approximate_unity",
                        lambda body, params: calls.append(params.n)
                        or unity(body, params))
    f = lambda p: np.exp(p[:, 0])
    pair = approximate_theorem1(ConvexBody.ellipse(2.0, 1.0), f, 16, m=m0)
    ex = pair.report.extras
    m = ex["weierstrass_degree"]
    assert ex["weierstrass_steps"] == (m - m0) // 2
    # parts of degree 0..m need the multipliers n - deg // 2: m // 2 + 1 calls
    assert calls == [16 - k for k in range(m // 2 + 1)]
    assert ex["unity_cache_hits"] == m + 1 - len(calls) == m - m // 2
    assert sorted(ex) == ["unity_cache_hits", "unity_triangle_bound",
                          "validation_sup_error", "weierstrass_degree",
                          "weierstrass_steps", "weierstrass_sup_error"]
