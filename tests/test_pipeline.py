"""End-to-end homogeneous-pair approximation on planar boundaries."""

import numpy as np
import pytest

from homapprox import (ConvexBody, HomogeneousPoly, approximate_theorem1,
                       approximate_theorem2, approximate_unity,
                       DimensionError, EscalationError)


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
    pair = approximate_theorem1(ConvexBody.disk(), f, 16)
    rep = pair.report
    assert rep.sup_error <= rep.extras["unity_triangle_bound"] \
        + rep.extras["weierstrass_sup_error"] + 1e-9


def test_theorem1_escalation_error():
    # at n = 8 the Weierstrass degree is capped at its start, 8
    with pytest.raises(EscalationError) as ei:
        approximate_theorem1(ConvexBody.disk(), f_absx, 8)
    assert ei.value.achieved > 0


def test_theorem1_m_cap_guard():
    with pytest.raises(ValueError, match="at least 8"):
        approximate_theorem1(ConvexBody.disk(), f_one, 7)


def test_routes_agree_on_smooth_problem():
    body = ConvexBody.disk()
    f = lambda p: p[:, 0] ** 2 + 2 * p[:, 1] ** 2
    planar = approximate_theorem2(body, f, 16)
    geometric = approximate_theorem1(body, f, 16)
    assert planar.report.sup_error < 1e-2
    assert geometric.report.sup_error < 5e-2


def test_pair_call_matches_stable_eval():
    body = ConvexBody.ellipse(2.0, 1.0)
    pair = approximate_theorem2(body, f_expcos, 9)
    pts = body.boundary_points(64)
    direct = pair.h_even(pts) + pair.h_odd(pts)
    assert np.max(np.abs(pair(pts) - direct)) < 1e-8 * (1 + np.max(np.abs(direct)))


def _long_double_horner(hp, pts):
    """The exported polynomial at pts, in long double: Horner in y/x or x/y,
    whichever is at most 1 in magnitude."""
    n = hp.degree
    c = np.zeros(n + 1, dtype=np.longdouble)
    for term in hp.to_json_obj():
        c[term["exponents"][1]] = term["coeff"]
    x, y = (pts[:, i].astype(np.longdouble) for i in (0, 1))
    swap = np.abs(x) < np.abs(y)
    a, r = np.where(swap, y, x), np.where(swap, x / y, y / x)
    coef = np.where(swap[:, None], c[::-1], c)     # coef[:, k] multiplies r^k
    acc = np.zeros(len(pts), dtype=np.longdouble)
    for k in range(n, -1, -1):
        acc = acc * r + coef[:, k]
    return acc * a ** n


@pytest.mark.parametrize("body, n", [(ConvexBody.square(), 32),
                                     (ConvexBody.ellipse(2.0, 1.0), 17)],
                         ids=["square-32", "ellipse-17"])
def test_pair_call_matches_exported_monomials_in_long_double(body, n):
    """pair(x), the stable evaluator, and the exported h_even + h_odd summed
    in long double agree to 1e-9 relative, so an export that loses digits
    is caught."""
    pair = approximate_theorem2(body, f_expcos, n)
    pts = body.boundary_points(2048)
    ref = _long_double_horner(pair.h_even, pts) + _long_double_horner(
        pair.h_odd, pts)
    scale = max(1.0, float(np.max(np.abs(ref))))
    assert float(np.max(np.abs(pair(pts) - ref))) <= 1e-9 * scale


def test_square_report_covers_vertices():
    """The vertex (1, 1), where the pair's error peaks, is in the report."""
    pair = approximate_theorem2(ConvexBody.square(), f_absx, 16)
    corner = np.array([[1.0, 1.0]])
    assert pair.report.sup_error >= abs(f_absx(corner)[0] - pair(corner))


def test_diamond_pair_is_its_polygon_twins():
    """The p = 1 ball is the polygon of its vertices: its corners are set, so
    its planar pair is solved and reported at them, bit for bit the twin's."""
    diamond = ConvexBody.pnorm_ball(1.0, (2.0, 0.5))
    twin = ConvexBody.polygon([(2.0, 0.0), (0.0, 0.5), (-2.0, 0.0),
                               (0.0, -0.5)])
    assert np.array_equal(diamond.corners(), twin.corners())
    pair = approximate_theorem2(diamond, f_expcos, 32)
    ref = approximate_theorem2(twin, f_expcos, 32)
    assert np.array_equal(pair.h_even.vec, ref.h_even.vec)
    assert np.array_equal(pair.h_odd.vec, ref.h_odd.vec)
    assert pair.report.to_json_obj() == ref.report.to_json_obj()


def test_pair_call_takes_what_homogeneous_poly_takes():
    """On both routes pair(x) reads one point as a 1-D array or a (1, 2)
    array and returns a float for it, an array for zero or more rows, and
    rejects non-planar points, like h_even(x) + h_odd(x)."""
    body = ConvexBody.disk()
    pts = np.array([[0.6, 0.8], [-0.8, 0.6]])
    for pair in (approximate_theorem2(body, f_expcos, 9),
                 approximate_theorem1(body, f_expcos, 8)):
        many = pair(pts)
        assert many.shape == (2,)
        assert pair(np.zeros((0, 2))).shape == (0,)
        for one in (pts[0], pts[:1]):
            assert isinstance(pair(one), float)
            assert pair(one) == pytest.approx(many[0], rel=1e-12)
        with pytest.raises(DimensionError):
            pair(np.ones((2, 3)))


def test_exact_pair_takes_one_lp_solve():
    pair = approximate_theorem2(ConvexBody.disk(), f_one, 17)
    assert pair.report.extras["lp_solves"] == 1
    assert pair.report.extras["refine_converged"] is True
    # 4 (17 + 1) + 1 start nodes on two branches, two signs each
    assert pair.report.extras["lp_rows"] == 2 * 2 * (4 * 18 + 1)


@pytest.mark.parametrize("f, steps", [
    (lambda p: np.exp(p[:, 0]), 0),
    (lambda p: np.cos(3 * p[:, 0]), 2),
], ids=["exp-x", "cos-3x"])
def test_theorem1_run_counters(monkeypatch, f, steps):
    """weierstrass_steps counts the +2 escalations past the initial degree 8,
    unity_cache_hits the graded parts whose multiplier another part already
    took, and unity_meshes the batched multiplier builds, one per mesh."""
    from homapprox import unity
    calls = []
    fit = unity._patch_coeffs
    monkeypatch.setattr(unity, "_patch_coeffs",
                        lambda body, offsets, h, targets, radius:
                        calls.append([t // 2 for t in targets])
                        or fit(body, offsets, h, targets, radius))
    pair = approximate_theorem1(ConvexBody.ellipse(2.0, 1.0), f, 16)
    ex = pair.report.extras
    m = ex["weierstrass_degree"]
    assert ex["weierstrass_steps"] == steps == (m - 8) // 2
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
    sums = [np.zeros(2 * n + 1), np.zeros(2 * n + 2)]
    cache, bound = {}, 0.0
    for deg, part in enumerate(parts):
        hj = HomogeneousPoly.from_vector(part[:deg + 1])
        n_u = n - deg // 2
        if n_u not in cache:
            u = approximate_unity(body, n_u)
            cache[n_u] = (u, float(np.max(np.abs(1.0 - u(pts)))))
        u, uerr = cache[n_u]
        sums[deg % 2] += hj.multiply(u).vec
        bound += float(np.max(np.abs(hj(pts)))) * uerr
    h_even, h_odd = map(HomogeneousPoly.from_vector, sums)
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
    one unity build: the patch fits hold only their window nodes' samples
    and each target's kept coefficients, not a transform over all 4096
    nodes of every patch's line.  About 3.3 MB here; the dense transform
    read about 9.3 MB."""
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
