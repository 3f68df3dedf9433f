"""End-to-end homogeneous-pair approximation on planar boundaries."""

import numpy as np
import pytest

from homapprox import (ConvexBody, HomogeneousPoly, UnityParams,
                       approximate_theorem1, approximate_theorem2,
                       approximate_unity, EscalationError)


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
    """weierstrass_steps counts the +2 escalations past the initial m,
    unity_cache_hits the graded parts whose multiplier another part already
    took, and unity_meshes the batched multiplier builds, one per mesh."""
    from homapprox import pipeline
    calls = []
    unities = pipeline.approximate_unities
    monkeypatch.setattr(pipeline, "approximate_unities",
                        lambda body, params: calls.append([p.n for p in params])
                        or unities(body, params))
    f = lambda p: np.exp(p[:, 0])
    pair = approximate_theorem1(ConvexBody.ellipse(2.0, 1.0), f, 16, m=m0)
    ex = pair.report.extras
    m = ex["weierstrass_degree"]
    assert ex["weierstrass_steps"] == (m - m0) // 2
    # parts of degree 0..m need the multipliers n - deg // 2: m // 2 + 1 of
    # them, each on its own mesh at n = 16
    built = [n for group in calls for n in group]
    assert built == [16 - k for k in range(m // 2 + 1)]
    assert all(len(group) == 1 for group in calls)
    assert ex["unity_meshes"] == len(calls) == m // 2 + 1
    assert ex["unity_cache_hits"] == m + 1 - len(built) == m - m // 2
    assert sorted(ex) == ["unity_cache_hits", "unity_meshes",
                          "unity_triangle_bound", "validation_sup_error",
                          "weierstrass_degree", "weierstrass_steps",
                          "weierstrass_sup_error"]


def test_theorem1_unity_meshes_count_distinct_meshes():
    """The multiplier of degree 2 n_u has mesh h = 0.1 once n_u >= 28, so the
    five multipliers n, ..., n - 4 of m = 8 share one batched build from
    n = 32 on; below that, each n_u < 28 has a mesh of its own."""
    f = lambda p: np.exp(p[:, 0])
    body = ConvexBody.ellipse(2.0, 1.0)
    for n, meshes in ((28, 5), (30, 3), (32, 1), (40, 1)):
        ex = approximate_theorem1(body, f, n).report.extras
        assert ex["weierstrass_degree"] == 8
        assert ex["unity_meshes"] == meshes, n
        assert ex["unity_cache_hits"] == 4


def _theorem1_one_multiplier_at_a_time(body, f, n, m):
    """The geometric pair built with one approximate_unity call per distinct
    multiplier, in the order of the graded parts."""
    from homapprox.pipeline import _weierstrass_fit
    parts, _ = _weierstrass_fit(body, f, m)
    pts = body.boundary_points(1000)
    h_even = HomogeneousPoly.zero(2, 2 * n)
    h_odd = HomogeneousPoly.zero(2, 2 * n + 1)
    cache, bound = {}, 0.0
    for deg, part in enumerate(parts):
        hj = HomogeneousPoly.from_vector(part[:deg + 1])
        n_u = n - deg // 2
        if n_u not in cache:
            u = approximate_unity(body, UnityParams(n=n_u))
            cache[n_u] = (u, float(np.max(np.abs(1.0 - u(pts)))))
        u, uerr = cache[n_u]
        if deg % 2 == 0:
            h_even = h_even.add(hj.multiply(u))
        else:
            h_odd = h_odd.add(hj.multiply(u))
        bound += float(np.max(np.abs(hj(pts)))) * uerr
    return h_even, h_odd, bound


@pytest.mark.parametrize("body,n", [
    (ConvexBody.ellipse(2.0, 1.0), 16),     # five meshes
    (ConvexBody.ellipse(2.0, 1.0), 32),     # one mesh
    (ConvexBody.pnorm_ball(4.0), 32),
], ids=["ellipse-16", "ellipse-32", "pnorm4-32"])
def test_theorem1_matches_one_multiplier_at_a_time(body, n):
    """Building a call's multipliers together, one batch per mesh, changes
    no bit of the pair or of its triangle bound."""
    pair = approximate_theorem1(body, f_expcos, n)
    h_even, h_odd, bound = _theorem1_one_multiplier_at_a_time(
        body, f_expcos, n, pair.report.extras["weierstrass_degree"])
    assert np.array_equal(pair.h_even.vec, h_even.vec)
    assert np.array_equal(pair.h_odd.vec, h_odd.vec)
    assert pair.report.extras["unity_triangle_bound"] == bound


def test_theorem1_memory_peak():
    """A warm theorem-1 call at n = 64 keeps its traced peak near that of
    one unity build: each target keeps a copy of its kept coefficients, not
    a view that pins the whole (patches, 4096) transform.  About 9 MB here;
    views would read about 20 MB."""
    import tracemalloc
    body = ConvexBody.ellipse(2.0, 1.0)
    f = lambda p: np.exp(p[:, 0])
    approximate_theorem1(body, f, 64)
    tracemalloc.start()
    try:
        approximate_theorem1(body, f, 64)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 12e6
