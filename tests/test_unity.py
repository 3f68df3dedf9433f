"""Even homogeneous approximation of 1 on smooth planar boundaries."""

import mpmath
import numpy as np
import pytest

from homapprox import (ConvexBody, HomogeneousPoly, UnityParams,
                       approximate_unity, unity_error_report,
                       linear_form_power, UnsupportedBodyError)
from homapprox.unity import _lift_cheb


def test_resolve_defaults():
    # the schedule clip(2.8/n, 0.1, 0.35) at both clips and in between
    assert [UnityParams(n=n).resolve() for n in (4, 8, 16, 64)] == \
        pytest.approx([0.35, 0.35, 0.175, 0.1])
    # an explicit h wins, e.g. the paper's asymptotic mesh n^(-gamma)
    assert UnityParams(n=16, h=16.0 ** -0.5).resolve() == 0.25


def test_resolve_rejects_small_n():
    with pytest.raises(ValueError):
        UnityParams(n=3).resolve()
    for h in (0.0, -0.1, 1.5):
        with pytest.raises(ValueError):
            UnityParams(n=8, h=h).resolve()


def test_disk_unity_error_and_improvement():
    body = ConvexBody.disk()
    r8 = unity_error_report(body, approximate_unity(body, UnityParams(n=8)))
    r16 = unity_error_report(body, approximate_unity(body, UnityParams(n=16)))
    assert r8.sup_error < 0.3
    assert r16.sup_error < r8.sup_error


def test_ellipse_unity_errors_decrease():
    body = ConvexBody.ellipse(2.0, 1.0)
    errs = []
    for n in (8, 16, 32):
        hp = approximate_unity(body, UnityParams(n=n))
        assert hp.degree == 2 * n
        errs.append(unity_error_report(body, hp).sup_error)
    assert errs[0] < 1.0
    assert errs[2] < errs[1] < errs[0]


def test_unity_output_is_even():
    hp = approximate_unity(ConvexBody.disk(), UnityParams(n=8))
    rng = np.random.default_rng(9)
    x = rng.standard_normal((50, 2))
    assert np.max(np.abs(hp(x) - hp(-x))) < 1e-10 * (1 + np.max(np.abs(hp(x))))


def test_error_report_exact_cases():
    body = ConvexBody.disk()
    # (x^2 + y^2)^8 is exactly 1 on the circle
    from math import comb
    exact = HomogeneousPoly(2, 16, {(16 - 2 * j, 2 * j): float(comb(8, j))
                                    for j in range(9)})
    rep = unity_error_report(body, exact)
    assert rep.sup_error < 1e-12
    zero = HomogeneousPoly.zero(2, 16)
    assert unity_error_report(body, zero).sup_error == pytest.approx(1.0)


def test_error_report_rejects_odd_degree():
    with pytest.raises(ValueError):
        unity_error_report(ConvexBody.disk(), HomogeneousPoly.zero(2, 3))


def test_non_smooth_body_rejected():
    with pytest.raises(UnsupportedBodyError):
        approximate_unity(ConvexBody.square(), UnityParams(n=8))


def _patch_geometries(rng, count):
    th = rng.uniform(0, 2 * np.pi, count)
    w = np.stack([np.cos(th), np.sin(th)], axis=1)
    e = np.stack([-np.sin(th), np.cos(th)], axis=1)
    s_k = rng.uniform(-0.5, 0.5, count)
    radius = rng.uniform(1.0, 3.0, count)
    return w, e, s_k - radius, s_k + radius


def _mp_cheb_sum(c, u):
    t_prev, t_cur = mpmath.mpf(1), u
    acc = mpmath.mpf(float(c[0])) + mpmath.mpf(float(c[1])) * u
    for cj in c[2:]:
        t_prev, t_cur = t_cur, 2 * u * t_cur - t_prev
        acc += mpmath.mpf(float(cj)) * t_cur
    return acc


def _check_lift_on_lines(row, c, w, e, lo, hi):
    """row restricted to {<x,w> = +/-1} against chebval(alpha s + beta, c).

    Both sides are evaluated in 60 digits, so the comparison sees only the
    rounding of the lifted coefficients, measured against the sum of the
    absolute terms of the monomial form.
    """
    target = len(row) - 1
    mp = mpmath.mpf
    for s in np.linspace(lo, hi, 5):
        u = (2 * mp(s) - mp(lo) - mp(hi)) / (mp(hi) - mp(lo))
        ref = _mp_cheb_sum(c, u)
        for sign in (1, -1):
            x = [sign * (mp(w[i]) + mp(s) * mp(e[i])) for i in (0, 1)]
            terms = [mp(float(v)) * x[0] ** (target - k) * x[1] ** k
                     for k, v in enumerate(row)]
            err = abs(mpmath.fsum(terms) - ref)
            assert err <= 1e-13 * mpmath.fsum(abs(t) for t in terms), (s, sign)


def test_lift_restricts_to_chebyshev_sum():
    rng = np.random.default_rng(31)
    target = 128
    w, e, lo, hi = _patch_geometries(rng, 4)
    c = rng.uniform(-1.0, 1.0, (4, target + 1))
    rows = _lift_cheb(c, w, e, lo, hi, target)
    assert rows.shape == (4, target + 1)
    with mpmath.workdps(60):
        for i in range(4):
            single = _lift_cheb(c[i:i + 1], w[i:i + 1], e[i:i + 1],
                                lo[i:i + 1], hi[i:i + 1], target)
            # each row of a batch is the single-patch lift, bit for bit
            assert np.array_equal(single[0], rows[i])
            _check_lift_on_lines(rows[i], c[i], w[i], e[i], lo[i], hi[i])


def test_lift_of_short_series_pads_with_supporting_form():
    # c = [1]: the lift is <x,w>^target itself
    w, e = np.array([[0.6, 0.8]]), np.array([[-0.8, 0.6]])
    row = _lift_cheb(np.ones((1, 1)), w, e, np.array([-1.0]), np.array([1.0]),
                     6)[0]
    ref = linear_form_power(w[0], 6).vec
    assert np.max(np.abs(row - ref)) <= 1e-15 * np.max(np.abs(ref))
