"""Even homogeneous approximation of 1 on smooth planar boundaries."""

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from homapprox import (ConvexBody, HomogeneousPoly, approximate_theorem1,
                       approximate_unity, mesh_size, unity_error_report,
                       linear_form_power, UnsupportedBodyError)
from homapprox import unity
from homapprox.partition import (anchor_directions, cube_pair_bump,
                                 sphere_patches)
from homapprox.polys import cheb_coeffs, cheb_nodes
from homapprox.unity import (_lift_cheb, _patch_coeffs, _support_window,
                             approximate_unities)


def test_mesh_size_defaults():
    # the schedule clip(2.8/n, 0.1, 0.35) at both clips and in between
    assert [mesh_size(n) for n in (4, 8, 16, 64)] == \
        pytest.approx([0.35, 0.35, 0.175, 0.1])


def test_mesh_size_rejects_small_n():
    with pytest.raises(ValueError):
        mesh_size(3)


def test_disk_unity_error_and_improvement():
    body = ConvexBody.disk()
    r8 = unity_error_report(body, approximate_unity(body, 8))
    r16 = unity_error_report(body, approximate_unity(body, 16))
    assert r8.sup_error < 0.3
    assert r16.sup_error < r8.sup_error


def test_ellipse_unity_errors_decrease():
    body = ConvexBody.ellipse(2.0, 1.0)
    errs = []
    for n in (8, 16, 32):
        hp = approximate_unity(body, n)
        assert hp.degree == 2 * n
        errs.append(unity_error_report(body, hp).sup_error)
    assert errs[0] < 1.0
    assert errs[2] < errs[1] < errs[0]


def test_unity_output_is_even():
    hp = approximate_unity(ConvexBody.disk(), 8)
    rng = np.random.default_rng(9)
    x = rng.standard_normal((50, 2))
    assert np.max(np.abs(hp(x) - hp(-x))) < 1e-10 * (1 + np.max(np.abs(hp(x))))


def test_error_report_exact_cases():
    body = ConvexBody.disk()
    # (x^2 + y^2)^8 is exactly 1 on the circle
    from math import comb
    vec = np.zeros(17)
    vec[::2] = [comb(8, j) for j in range(9)]
    exact = HomogeneousPoly(vec)
    rep = unity_error_report(body, exact)
    assert rep.sup_error < 1e-12
    zero = HomogeneousPoly(np.zeros(17))
    assert unity_error_report(body, zero).sup_error == pytest.approx(1.0)


def test_error_report_rejects_odd_degree():
    with pytest.raises(ValueError):
        unity_error_report(ConvexBody.disk(), HomogeneousPoly(np.zeros(4)))


def test_non_smooth_body_rejected():
    with pytest.raises(UnsupportedBodyError):
        approximate_unity(ConvexBody.square(), 8)


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
    rows, = _lift_cheb([c], w, e, lo, hi, [target])
    assert rows.shape == (4, target + 1)
    with mpmath.workdps(60):
        for i in range(4):
            single, = _lift_cheb([c[i:i + 1]], w[i:i + 1], e[i:i + 1],
                                 lo[i:i + 1], hi[i:i + 1], [target])
            # each row of a batch is the single-patch lift, bit for bit
            assert np.array_equal(single[0], rows[i])
            _check_lift_on_lines(rows[i], c[i], w[i], e[i], lo[i], hi[i])


def test_lift_of_short_series_pads_with_supporting_form():
    # c = [1]: the lift is <x,w>^target itself
    w, e = np.array([[0.6, 0.8]]), np.array([[-0.8, 0.6]])
    row = _lift_cheb([np.ones((1, 1))], w, e, np.array([-1.0]),
                     np.array([1.0]), [6])[0][0]
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


def _line(body, offsets, h, radius):
    """The supporting line of a patch: w, e, foot, lo, hi."""
    u = anchor_directions(offsets * h / 6)
    p_bd = u / body.gauge(u[None, :])[0]
    line = body.support_line(p_bd)
    e = line.tangent_frame()
    s_k = float(np.dot(p_bd, e))
    return line.normal, e, line.foot(), s_k - radius, s_k + radius


def _full_line_bump(body, offsets, h, radius):
    """The patch's bump at all fit nodes of its line, and the nodes' s."""
    w, e, x_c, lo, hi = _line(body, offsets, h, radius)
    ss = lo + (hi - lo) * (cheb_nodes(unity._FIT_NODES) + 1) / 2
    x = x_c[None, :] + ss[:, None] * e[None, :]
    r = np.linalg.norm(x, axis=1)
    return ss, x, cube_pair_bump(x / r[:, None], h, offsets)


# cos(m pi / 2N) in long double, m < 4N: the cosines of a DCT-II of N nodes
_LD_COS = np.cos(np.arange(4 * unity._FIT_NODES, dtype=np.longdouble)
                 * (np.arccos(np.longdouble(-1)) / (2 * unity._FIT_NODES)))


def _ld_cheb_coeffs(vals, terms):
    """The first `terms` Chebyshev coefficients of samples at the fit nodes,
    as a long-double direct cosine sum (2/N) sum_k v_k cos(j (2k + 1) pi / 2N),
    c_0 halved; zero samples are skipped."""
    k = np.flatnonzero(vals)
    cos = _LD_COS[np.outer(2 * k + 1, np.arange(terms)) % len(_LD_COS)]
    c = vals[k].astype(np.longdouble) @ cos * 2 / len(vals)
    c[0] /= 2
    return c


def _assert_cheb_close(c, vals, ref):
    """|c - ref| <= 1e-13 (2/N) sum |v| for every coefficient."""
    bound = 1e-13 * 2 * np.sum(np.abs(vals)) / len(vals)
    assert np.all(np.abs(c - ref) <= bound)


@pytest.mark.parametrize("h", [None, 0.03])
@pytest.mark.parametrize("name", sorted(_FIT_BODIES))
def test_windowed_batch_fit_matches_full_line_fit(name, h):
    """Each row of the batched, windowed fit matches a long-double cosine sum
    over the bump evaluated on all nodes of its line, one patch and one
    target at a time, for every target of a multi-target call, as closely as
    cheb_coeffs of those samples does; its line is the patch's own, bit for
    bit."""
    body = _FIT_BODIES[name]()
    n = 16
    h = mesh_size(n) if h is None else h
    targets = [2 * n, 2 * n - 6, 2 * n - 2]
    radius = unity._FIT_RADIUS * body.delta()
    patches = sphere_patches(h, 2)
    cs, w, e, lo, hi = _patch_coeffs(body, patches, h, targets, radius)
    assert [c.shape for c in cs] == [(len(patches), t + 1) for t in targets]
    # each target's coefficients are their own array, not a view of a
    # buffer shared by the targets
    assert all(c.base is None for c in cs)
    for i, offsets in enumerate(patches):
        ss, x, b = _full_line_bump(body, offsets, h, radius)
        for c, target in zip(cs, targets):
            vals = np.zeros(len(ss))
            nz = b > 0
            vals[nz] = b[nz] * body.gauge(x[nz]) ** target
            ref = _ld_cheb_coeffs(vals, target + 1)
            _assert_cheb_close(c[i], vals, ref)
            _assert_cheb_close(cheb_coeffs(vals)[:target + 1], vals, ref)
        w_i, e_i, _, lo_i, hi_i = _line(body, offsets, h, radius)
        assert np.array_equal(w[i], w_i) and np.array_equal(e[i], e_i)
        assert (lo[i], hi[i]) == (lo_i, hi_i)


def test_window_coeffs_match_dense_transform():
    """The windowed cosine sums equal cheb_coeffs of the dense rows, truncated,
    within the bound of the full-line fit test: rows with random ranges, one
    row with no node, one with all 4096 nodes, one with a single node."""
    rng = np.random.default_rng(12)
    nodes = unity._FIT_NODES
    start = np.concatenate([rng.integers(1500, 2000, 5), [3000, 0, nodes - 1]])
    stop = np.concatenate([start[:5] + rng.integers(1, 600, 5),
                           [3000, nodes, nodes]])
    dense = np.zeros((len(start), nodes))
    for i, (a, b) in enumerate(zip(start, stop)):
        dense[i, a:b] = rng.uniform(0.0, 2.0, b - a)
    vals = np.concatenate([row[a:b] for row, a, b in zip(dense, start, stop)])
    terms = 129
    c = unity._window_coeffs(vals, start, stop, terms)
    assert c.shape == (len(start), terms)
    assert not c[5].any()
    ref = cheb_coeffs(dense)[:, :terms]
    for i in range(len(start)):
        _assert_cheb_close(c[i], dense[i], ref[i])


@pytest.mark.parametrize("name", ["ellipse-1-3", "radial"])
def test_patch_coeffs_of_one_target_match_a_multi_target_call(name):
    """A target fitted alone equals, bit for bit, the same target fitted
    among others in one _patch_coeffs call, with its line geometry."""
    body = _FIT_BODIES[name]()
    radius = unity._FIT_RADIUS * body.delta()
    patches = sphere_patches(0.1, 2)
    many = _patch_coeffs(body, patches, 0.1, [64, 128, 33], radius)
    for j, target in enumerate((64, 128, 33)):
        one = _patch_coeffs(body, patches, 0.1, [target], radius)
        assert np.array_equal(one[0][0], many[0][j]), target
        for a, b in zip(one[1:], many[1:]):
            assert np.array_equal(a, b)


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
    offsets = patches[pick % len(patches)]
    if own_line:
        radius = unity._FIT_RADIUS * body.delta()
        w, e = _line(body, offsets, h, radius)[:2]
        ss, _, bump = _full_line_bump(body, offsets, h, radius)
    else:
        c, s = np.cos(turn), np.sin(turn)
        u = anchor_directions(offsets * h / 6)
        w = sign * scale * np.array([c * u[0] - s * u[1], s * u[0] + c * u[1]])
        e = np.array([-w[1], w[0]]) / scale
        ss = np.tan(np.linspace(-1.5, 1.5, 20001)) / scale
        x = w[None, :] / scale ** 2 + ss[:, None] * e[None, :]
        bump = cube_pair_bump(x / np.linalg.norm(x, axis=1)[:, None], h,
                              offsets)
    (a,), (b,) = _support_window(offsets[None, :] * h / 6, h, w[None, :],
                                 e[None, :])
    inside = ss[bump > 0]
    assert np.all((a <= inside) & (inside <= b))


def test_patch_fits_are_one_batch_per_unity_call(monkeypatch):
    """A theorem-1 call fits its unity multipliers in one _patch_coeffs call
    per distinct mesh, with one target per multiplier of that mesh, and
    approximate_unity in one call with one target."""
    calls = []
    fit = unity._patch_coeffs

    def counted(body, offsets, h, targets, radius):
        calls.append((len(offsets), list(targets)))
        return fit(body, offsets, h, targets, radius)

    monkeypatch.setattr(unity, "_patch_coeffs", counted)
    body = ConvexBody.ellipse(2.0, 1.0)
    f = lambda p: np.exp(p[:, 0])
    patches = lambda n: len(sphere_patches(mesh_size(n), 2))
    # m = 8: parts of degree 0..8 take the multipliers n, ..., n - 4; from
    # n = 28 on they share the mesh h = 0.1
    pair = approximate_theorem1(body, f, 32)
    assert pair.report.extras["weierstrass_degree"] == 8
    assert calls == [(patches(32), [64, 62, 60, 58, 56])]
    calls.clear()
    approximate_theorem1(body, f, 16)
    assert calls == [(patches(k), [2 * k]) for k in (16, 15, 14, 13, 12)]
    assert len({mesh_size(k) for k in range(12, 17)}) == 5
    calls.clear()
    approximate_unity(body, 8)
    assert calls == [(patches(8), [16])]


def _full_width_lift(c, w, e, lo, hi, target):
    """The single-target lift with full-length (patches, target + 1) vectors
    at every step: the recurrence and Horner pass before the triangular,
    multi-target one."""
    def times_form(vecs, form):
        out = np.zeros_like(vecs)
        L = vecs.shape[-1]
        for i in range(form.shape[-1]):
            out[..., i:] += form[..., i, None] * vecs[..., :L - i]
        return out

    c = np.pad(c, ((0, 0), (0, target + 1 - c.shape[1])))
    alpha = 2.0 / (hi - lo)
    beta = -(hi + lo) / (hi - lo)
    B = alpha[:, None] * e + beta[:, None] * w
    w2 = np.stack([w[:, 0] ** 2, 2 * w[:, 0] * w[:, 1], w[:, 1] ** 2], axis=1)
    g_prev = np.zeros((len(c), target + 1))
    g_prev[:, 0] = 1.0
    g_cur = times_form(g_prev, B)
    s = c[:, :1] * g_prev
    for j in range(1, c.shape[1]):
        if j > 1:
            g_prev, g_cur = g_cur, (2 * times_form(g_cur, B)
                                    - times_form(g_prev, w2))
        s = times_form(s, w) + c[:, j:j + 1] * g_cur
    return s


@pytest.mark.parametrize("seed", [3, 4])
def test_multi_target_lift_matches_full_width_lift(seed):
    """Every target of one _lift_cheb call equals, bit for bit, its own
    full-width single-target lift; the targets are given out of order."""
    rng = np.random.default_rng(seed)
    targets = [int(t) for t in rng.permutation(np.arange(120, 129))]
    w, e, lo, hi = _patch_geometries(rng, 5)
    cs = [rng.uniform(-1.0, 1.0, (5, t + 1)) for t in targets]
    rows = _lift_cheb(cs, w, e, lo, hi, targets)
    for c, t, r in zip(cs, targets, rows):
        assert r.shape == (5, t + 1)
        assert np.array_equal(r, _full_width_lift(c, w, e, lo, hi, t)), t


def test_multi_target_lift_of_short_series():
    """Series shorter than target + 1 terms are padded with zeros, in a
    multi-target call as in the single-target lift."""
    rng = np.random.default_rng(5)
    w, e, lo, hi = _patch_geometries(rng, 3)
    targets = [6, 40, 24]
    cs = [np.ones((3, 1)), rng.uniform(-1.0, 1.0, (3, 17)),
          rng.uniform(-1.0, 1.0, (3, 25))]
    rows = _lift_cheb(cs, w, e, lo, hi, targets)
    for c, t, r in zip(cs, targets, rows):
        assert np.array_equal(r, _full_width_lift(c, w, e, lo, hi, t)), t
    for i in range(3):
        ref = linear_form_power(w[i], 6).vec
        assert np.max(np.abs(rows[0][i] - ref)) <= 1e-15 * np.max(np.abs(ref))


def test_unities_of_one_mesh_match_single_calls():
    """approximate_unities returns, bit for bit and in order, what
    approximate_unity returns for each degree, whether the degrees share a
    mesh (30, 28, 33 at h = 0.1) or not (16, 12, 15)."""
    body = ConvexBody.pnorm_ball(4.0)
    for ns in ((30, 28, 33), (16, 12, 15)):
        us = approximate_unities(body, ns)
        assert [u.degree for u in us] == [2 * n for n in ns]
        for n, u in zip(ns, us):
            assert np.array_equal(u.vec, approximate_unity(body, n).vec)
    assert len({mesh_size(n) for n in (16, 12, 15)}) == 3
    with pytest.raises(UnsupportedBodyError):
        approximate_unities(ConvexBody.square(), (30, 28, 33))
