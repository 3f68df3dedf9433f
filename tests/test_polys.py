"""Polynomial infrastructure: evaluation, homogenization, fits, growth bound."""

import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from homapprox import (ConvexBody, HomogeneousPoly, linear_form_power,
                       homogenize_even, growth_bound,
                       growth_bound_check, OddMonomialError, DegreeCapError,
                       DimensionError)
from homapprox.geometry import SupportLine
from homapprox.pipeline import _weierstrass_fit
from homapprox.polys import _lift_graded, cheb_coeffs, cheb_nodes


def test_eval_simple():
    hp = HomogeneousPoly([1.0, 0.0, 1.0])
    assert hp(np.array([1.0, 2.0])) == pytest.approx(5.0)
    assert hp(np.zeros((0, 2))).shape == (0,)
    sq = linear_form_power(np.array([1.0, 1.0]), 2)
    assert sq(np.array([1.0, 1.0])) == pytest.approx(4.0)


@given(st.integers(2, 6), st.integers(0, 1000))
@settings(max_examples=25, deadline=None)
def test_homogeneity_law(degree, seed):
    rng = np.random.default_rng(seed)
    hp = HomogeneousPoly(rng.standard_normal(degree + 1)[::-1])
    x = rng.standard_normal(2)
    assert hp(2.0 * x) == pytest.approx(2.0 ** degree * hp(x), rel=1e-10)


def test_linear_form_power_multinomial():
    w = np.array([2.0, -1.0])
    hp = linear_form_power(w, 3)
    rng = np.random.default_rng(3)
    x = rng.standard_normal((20, 2))
    assert np.max(np.abs(hp(x) - (x @ w) ** 3)) < 1e-10 * np.max(
        np.abs(x @ w) ** 3 + 1)


def test_json_round_trip():
    hp = HomogeneousPoly([1.5, 0.0, -0.25, 0.0, 3.0])
    back = HomogeneousPoly.from_json_obj(2, 4, hp.to_json_obj())
    assert back.coeffs == hp.coeffs


def _line(theta):
    w = np.array([np.cos(theta), np.sin(theta)])
    return SupportLine(normal=w)


def _graded(m, coeffs):
    """Graded parts of total degree m from {(a, b): coefficient of x^a y^b}."""
    parts = np.zeros((m + 1, m + 1))
    for (a, b), c in coeffs.items():
        parts[a + b, b] = c
    return parts


def _graded_eval(parts, pts):
    """The polynomial with these graded parts, as a sum of its parts."""
    return sum(HomogeneousPoly(row[:d + 1])(pts)
               for d, row in enumerate(parts))


def test_homogenize_even_trivial_cases():
    # p == 1 -> <x,w>^2
    h = homogenize_even(_graded(0, {(0, 0): 1.0}), _line(0.0), 2)
    assert h.coeffs == {(2, 0): 1.0}
    # y^2 + 1 with w=(1,0), target 4 -> x^2 y^2 + x^4
    parts = _graded(2, {(0, 2): 1.0, (0, 0): 1.0})
    h = homogenize_even(parts, _line(0.0), 4)
    assert h.coeffs == {(2, 2): 1.0, (4, 0): 1.0}
    s = np.linspace(-3, 3, 100)
    pts = np.stack([np.ones_like(s), s], axis=1)
    assert np.max(np.abs(h(pts) - _graded_eval(parts, pts))) < 1e-12 * np.max(
        1 + s ** 4)
    # already homogeneous -> unchanged
    h = homogenize_even(_graded(2, {(2, 0): 2.0, (0, 2): -1.0}), _line(0.3), 2)
    assert h.coeffs == {(2, 0): 2.0, (0, 2): -1.0}


def test_homogenize_even_agreement_random():
    rng = np.random.default_rng(11)
    for _ in range(20):
        exps = [(a, b) for a in range(5) for b in range(5)
                if (a + b) % 2 == 0 and a + b <= 4]
        parts = _graded(4, dict(zip(exps, rng.standard_normal(len(exps)))))
        line = _line(rng.uniform(0, 2 * np.pi))
        h = homogenize_even(parts, line, 6)
        e = line.tangent_frame()
        s = rng.uniform(-2, 2, 50)
        pts = line.foot()[None, :] + s[:, None] * e[None, :]
        p = _graded_eval(parts, pts)
        scale = 1 + np.max(np.abs(p))
        assert np.max(np.abs(h(pts) - p)) < 1e-10 * scale
        assert np.max(np.abs(h(-pts) - p)) < 1e-10 * scale


def test_weierstrass_parts_lift_as_they_are():
    """The geometric route's graded rows are homogenize_even's input: an
    even f's least-squares fit has nonzero odd rows (odd multiples of the
    ellipse's equation vanish on the boundary), and with them zeroed the lift
    equals the sum of the even rows on both lines <x,w> = +/-1."""
    body = ConvexBody.ellipse(2.0, 1.0)
    parts, _ = _weierstrass_fit(
        body, lambda p: np.cosh(p[:, 0]) * np.cos(p[:, 1]), 8)
    line = body.support_line(body.boundary_points(7)[3])
    assert np.max(np.abs(parts[1::2])) > 1e-2
    with pytest.raises(OddMonomialError):
        homogenize_even(parts, line, 10)
    parts[1::2] = 0.0
    h = homogenize_even(parts, line, 10)
    s = np.linspace(-3, 3, 101)
    pts = line.foot()[None, :] + s[:, None] * line.tangent_frame()[None, :]
    p = _graded_eval(parts, pts)
    for side in (pts, -pts):
        assert np.max(np.abs(h(side) - p)) <= 1e-14 * np.max(np.abs(p))


def _full_width_horner(parts, form):
    """S <- F S + P_j with every vector at the output's full length."""
    s = parts[0].copy()
    L = s.shape[-1]
    for part in parts[1:]:
        out = np.zeros_like(s)
        for i in range(form.shape[-1]):
            out[..., i:] += form[..., i, None] * s[..., :L - i]
        s = out + part
    return s


@pytest.mark.parametrize("form", [
    np.array([0.6, -0.8]),                    # homogenize_even's <x,w>
    np.array([1.0, 0.0, 1.0]),                # monomial_coeffs' x^2 + y^2
])
def test_lift_graded_matches_full_width_horner(form):
    """The triangular Horner pass equals the full-width one bit for bit,
    for a single sum and for a lockstep batch whose rows end at different
    steps (each row against its own full-width sum)."""
    rng = np.random.default_rng(len(form))
    step = len(form) - 1
    J = 30
    L = J * step + 1
    parts = np.zeros((J + 1, L))
    for j in range(J + 1):
        k = j * step + 1                      # part j has degree k - 1
        parts[j, :k] = rng.standard_normal(k)
    assert np.array_equal(_lift_graded(parts, form),
                          _full_width_horner(parts, form))
    # three rows of parts, the last two ending after 20 and 9 steps
    batch = rng.standard_normal((3, J + 1, L)) * (parts != 0)
    ends = [J, 20, 9]
    lifted = _lift_graded((batch[:sum(e >= j for e in ends), j]
                           for j in range(J + 1)), form)
    for r, end in enumerate(ends):
        deg = end * step
        ref = _full_width_horner(batch[r, :end + 1, :deg + 1], form)
        assert np.array_equal(lifted[r, :deg + 1], ref), r


def test_homogenize_even_rejections():
    with pytest.raises(OddMonomialError):
        homogenize_even(_graded(1, {(1, 0): 1.0}), _line(0.0), 4)
    with pytest.raises(DegreeCapError):
        homogenize_even(_graded(4, {(2, 2): 1.0}), _line(0.0), 2)
    with pytest.raises(ValueError):
        homogenize_even(_graded(2, {(2, 0): 1.0}), _line(0.0), 3)
    with pytest.raises(DimensionError):
        homogenize_even(np.ones((2, 3)), _line(0.0), 4)


@given(st.integers(1, 64), st.integers(0, 2 ** 32 - 1))
@settings(max_examples=40, deadline=None)
def test_cheb_coeffs_inverts_chebval_at_nodes(n, seed):
    """Values of a degree < n Chebyshev sum at the n nodes give back its
    coefficients, alone and along the last axis of a batch of differing
    scales."""
    rng = np.random.default_rng(seed)
    c = rng.standard_normal((3, n)) * 10.0 ** rng.uniform(-3, 3, (3, 1))
    u = cheb_nodes(n)
    assert u.shape == (n,) and np.all(np.diff(u) < 0) and np.all(np.abs(u) < 1)
    scale = np.max(np.abs(c), axis=1)
    got = cheb_coeffs(np.polynomial.chebyshev.chebval(u, c[0]))
    assert np.max(np.abs(got - c[0])) <= 1e-13 * scale[0]
    vals = np.polynomial.chebyshev.chebval(u, c.T)
    got = cheb_coeffs(vals)
    assert got.shape == c.shape
    assert np.all(np.max(np.abs(got - c), axis=1) <= 1e-13 * scale)


def test_growth_bound_values():
    assert growth_bound(4, 1.0, 1.5) == pytest.approx(3.0 ** 4)
    with pytest.raises(ValueError):
        growth_bound(4, 1.0, 0.5)
    with pytest.raises(ValueError):
        growth_bound(4, -1.0, 2.0)
    # T4 at 1.5 stays below (2*1.5)^4 = 81
    t4 = np.array([1.0, 0.0, -8.0, 0.0, 8.0])
    val, bound, ok = growth_bound_check(t4, 1.0, 1.5)
    assert ok and val == pytest.approx(23.5) and bound == pytest.approx(81.0)


def test_growth_bound_random_polys():
    rng = np.random.default_rng(12)
    s = np.linspace(-1, 1, 2001)
    for _ in range(100):
        n = int(rng.integers(1, 13))
        c = rng.standard_normal(n + 1)
        c /= np.max(np.abs(np.polynomial.polynomial.polyval(s, c)))
        x = float(rng.uniform(1.05, 3.0))
        val, bound, ok = growth_bound_check(c, 1.0, x)
        assert ok


def test_growth_bound_check_dimension_guard():
    with pytest.raises(DimensionError):
        # x*y as a table of coefficients of x^i y^j
        growth_bound_check(np.array([[0.0, 0.0], [0.0, 1.0]]), 1.0, 2.0)


def _mp_terms(vec, x, y):
    """Terms c_k x^(n-k) y^k of a coefficient vector, in mpmath."""
    n = len(vec) - 1
    x, y = mpmath.mpf(float(x)), mpmath.mpf(float(y))
    return [mpmath.mpf(float(c)) * x ** (n - k) * y ** k
            for k, c in enumerate(vec)]


@pytest.mark.parametrize("degree", [128, 129])
def test_eval_matches_mpmath_at_high_degree(degree):
    rng = np.random.default_rng(degree)
    vec = rng.choice([-1.0, 1.0], degree + 1) * 10.0 ** rng.uniform(
        -3, 9, degree + 1)
    hp = HomogeneousPoly(vec)
    rho = 0.7
    th = rng.uniform(0, 2 * np.pi, 40)
    pts = np.vstack([np.stack([np.cos(th), np.sin(th)], axis=1)
                     * rng.uniform(0.5, 1.5, (40, 1)),
                     [[0.0, rho], [0.0, -rho], [1.0, 0.0], [-1.0, 0.0],
                      [0.3, 0.0], [0.0, 1.2]]])
    got = hp(pts)
    with mpmath.workdps(60):
        for (x, y), g in zip(pts, got):
            terms = _mp_terms(vec, x, y)
            err = abs(mpmath.mpf(float(g)) - mpmath.fsum(terms))
            assert err <= 1e-13 * mpmath.fsum(abs(t) for t in terms), (x, y)


@pytest.mark.parametrize("terms", [
    [{"exponents": [2, 1], "coeff": 1.0}, {"exponents": [2, 1], "coeff": 2.0}],
    [{"exponents": [True, 2], "coeff": 1.0}],
    [{"exponents": [2.0, 1.0], "coeff": 1.0}],
    [{"exponents": [3, 0]}],
    [{"exponents": [3, 0], "coeff": True}],
    [{"exponents": [3, 0], "coeff": float("nan")}],
    [{"exponents": [3, 0], "coeff": float("inf")}],
    [{"exponents": [3, 0], "coeff": "1.5"}],
], ids=["repeated", "bool", "float", "no-coeff", "coeff-true", "coeff-nan",
        "coeff-inf", "coeff-string"])
def test_from_json_obj_rejects_malformed_terms(terms):
    with pytest.raises(ValueError):
        HomogeneousPoly.from_json_obj(2, 3, terms)


def test_linear_form_power_exact_binomials():
    rng = np.random.default_rng(5)
    for n in (0, 1, 7, 64, 128):
        w = rng.standard_normal(2)
        vec = linear_form_power(w, n).vec
        w0, w1 = Fraction(w[0]), Fraction(w[1])
        for k in range(n + 1):
            exact = math.comb(n, k) * w0 ** (n - k) * w1 ** k
            assert abs(Fraction(vec[k]) - exact) <= 1e-14 * abs(exact), (n, k)


def test_dense_layout_and_dict_view():
    hp = HomogeneousPoly.from_json_obj(2, 3, [
        {"exponents": [3, 0], "coeff": 2.0}, {"exponents": [1, 2], "coeff": -1.0}])
    assert list(hp.vec) == [2.0, 0.0, -1.0, 0.0]
    assert hp.coeffs == {(3, 0): 2.0, (1, 2): -1.0}
    with pytest.raises(TypeError):
        hp.coeffs[(0, 3)] = 1.0
    prod = hp.multiply(linear_form_power(np.array([1.0, 1.0]), 1))
    assert list(prod.vec) == [2.0, 2.0, -1.0, -1.0, 0.0]
    with pytest.raises(DimensionError):
        HomogeneousPoly.from_json_obj(3, 2, [{"exponents": [2, 0, 0], "coeff": 1.0}])
    with pytest.raises(DimensionError):
        HomogeneousPoly.from_json_obj(2, 2, [{"exponents": [2, 0, 0], "coeff": 1.0}])
    # exact on the axes: no division by x or y
    assert hp(np.array([0.0, 2.0])) == 0.0
    assert hp(np.array([-3.0, 0.0])) == -54.0
