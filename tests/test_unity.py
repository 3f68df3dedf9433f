"""Even homogeneous approximation of 1 on smooth planar boundaries."""

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from homapprox import (ConvexBody, HomogeneousPoly, UnityParams,
                       approximate_unity, unity_error_report,
                       linear_form_power, UnsupportedBodyError)
from homapprox import unity
from homapprox.partition import sphere_patches
from homapprox.polys import cheb_coeffs, cheb_nodes
from homapprox.unity import _lift_cheb, _patch_coeffs, _support_window


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


def _radial_body():
    th = np.linspace(0, np.pi, 64, endpoint=False)
    return ConvexBody.radial_samples(th, 1 + 0.1 * np.cos(2 * th))


_FIT_BODIES = {
    "disk": ConvexBody.disk,
    "ellipse-2-1": lambda: ConvexBody.ellipse(2.0, 1.0),
    "ellipse-1-3": lambda: ConvexBody.ellipse(1.0, 3.0),
    "p4-ball": lambda: ConvexBody.pnorm_ball(4.0),
    "radial": _radial_body,
}


def _line(body, patch, radius):
    """The supporting line of a patch: w, e, foot, lo, hi."""
    u = patch.anchor_direction
    p_bd = u / body.gauge(u[None, :])[0]
    line = body.support_line(p_bd)
    e = line.tangent_frame()[0]
    s_k = float(np.dot(p_bd, e))
    return line.normal, e, line.foot(), s_k - radius, s_k + radius


def _full_line_bump(body, patch, radius):
    """The patch's bump at all fit nodes of its line, and the nodes' s."""
    w, e, x_c, lo, hi = _line(body, patch, radius)
    ss = lo + (hi - lo) * (cheb_nodes(unity._FIT_NODES) + 1) / 2
    x = x_c[None, :] + ss[:, None] * e[None, :]
    r = np.linalg.norm(x, axis=1)
    return ss, x, np.atleast_1d(patch.bump(x / r[:, None]))


@pytest.mark.parametrize("h", [None, 0.03])
@pytest.mark.parametrize("name", sorted(_FIT_BODIES))
def test_windowed_batch_fit_matches_full_line_fit(name, h):
    """Each row of the batched, windowed fit equals, bit for bit, the fit of
    the bump evaluated on all nodes of its line, one patch at a time."""
    body = _FIT_BODIES[name]()
    n = 16
    h = UnityParams(n=n, h=h).resolve()
    target, radius = 2 * n, unity._FIT_RADIUS * body.delta()
    patches = sphere_patches(h, 2)
    c, w, e, lo, hi = _patch_coeffs(body, patches, target, radius)
    assert c.shape == (len(patches), target + 1)
    for i, patch in enumerate(patches):
        ss, x, b = _full_line_bump(body, patch, radius)
        vals = np.zeros(len(ss))
        nz = b > 0
        vals[nz] = b[nz] * body.gauge(x[nz]) ** target
        ref = cheb_coeffs(vals)[:target + 1]
        assert np.array_equal(c[i], ref), (name, h, i)
        w_i, e_i, _, lo_i, hi_i = _line(body, patch, radius)
        assert np.array_equal(w[i], w_i) and np.array_equal(e[i], e_i)
        assert (lo[i], hi[i]) == (lo_i, hi_i)


@given(st.sampled_from(sorted(_FIT_BODIES)), st.floats(0.03, 0.35),
       st.integers(0, 10 ** 6), st.booleans(), st.sampled_from([1.0, -1.0]),
       st.floats(-1.6, 1.6), st.floats(0.5, 2.0))
@settings(max_examples=60, deadline=None)
def test_support_window_holds_every_nonzero_node(name, h, pick, own_line,
                                                 sign, turn, scale):
    """Every point of a line where a patch's bump is > 0 lies in its window.

    The line is the patch's own supporting line, sampled at its fit nodes, or
    a line <x,w> = 1 with w turned from +/- the patch's anchor direction,
    sampled at 20001 evenly spaced directions within 1.5 rad of w.
    """
    body = _FIT_BODIES[name]()
    patches = sphere_patches(h, 2)
    patch = patches[pick % len(patches)]
    if own_line:
        radius = unity._FIT_RADIUS * body.delta()
        w, e = _line(body, patch, radius)[:2]
        ss, _, bump = _full_line_bump(body, patch, radius)
    else:
        c, s = np.cos(turn), np.sin(turn)
        u = patch.anchor_direction
        w = sign * scale * np.array([c * u[0] - s * u[1], s * u[0] + c * u[1]])
        e = np.array([-w[1], w[0]]) / scale
        ss = np.tan(np.linspace(-1.5, 1.5, 20001)) / scale
        x = w[None, :] / scale ** 2 + ss[:, None] * e[None, :]
        bump = np.atleast_1d(patch.bump(x / np.linalg.norm(x, axis=1)[:, None]))
    a, b = _support_window(patch, w, e)
    inside = ss[bump > 0]
    assert np.all((a <= inside) & (inside <= b))


def test_patch_fits_are_one_batch_per_unity_call(monkeypatch):
    """approximate_unity fits all of its patches in one _patch_coeffs call."""
    calls = []
    fit = unity._patch_coeffs

    def counted(body, patches, target, radius):
        calls.append(len(patches))
        return fit(body, patches, target, radius)

    monkeypatch.setattr(unity, "_patch_coeffs", counted)
    body = ConvexBody.ellipse(2.0, 1.0)
    for n in (8, 16):
        approximate_unity(body, UnityParams(n=n))
    h8, h16 = UnityParams(n=8).resolve(), UnityParams(n=16).resolve()
    assert calls == [len(sphere_patches(h8, 2)), len(sphere_patches(h16, 2))]
