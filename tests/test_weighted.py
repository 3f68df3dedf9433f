"""Weighted minimax on the compactified line and the homogeneous conversion."""

import math

import mpmath
import numpy as np
import pytest

from homapprox import (ConvexBody, CompactifiedFunction, divide_out_weight,
                       weighted_minimax, homog_from_weighted, invert_weight,
                       UnequalLimitsError, DegreeCapError)
from homapprox import weighted_approx


def disk_weight():
    return ConvexBody.disk().weight()


def test_trivial_oracle_constant_p():
    """f = W^2 is represented exactly by p = 1."""
    w = disk_weight()
    f = CompactifiedFunction(lambda t: w.W(t) ** 2, 0.0, 0.0)
    wa = weighted_minimax(f, w, 2)
    assert wa.sup_error < 1e-12
    t = np.linspace(-30, 30, 501)
    assert np.max(np.abs(wa(t) - f(t))) < 1e-12


def test_trivial_oracle_linear_p():
    """f = t W^2 is represented exactly by p(t) = t."""
    w = disk_weight()
    f = CompactifiedFunction(lambda t: t * w.W(t) ** 2, 0.0, 0.0)
    wa = weighted_minimax(f, w, 2)
    assert wa.sup_error < 1e-12
    t = np.linspace(-30, 30, 501)
    assert np.max(np.abs(wa(t) - f(t))) < 1e-12
    a = wa.monomial_coeffs()
    assert np.max(np.abs(a - np.array([0.0, 1.0, 0.0]))) < 1e-10


def test_exact_fit_takes_one_lp_solve():
    """1/(1+t^2) = W^2 on the disk; the LP objective is below the solver's
    tolerance, so only the absolute floor of the stop test can accept it."""
    f = CompactifiedFunction(lambda t: 1.0 / (1 + t ** 2), 0.0, 0.0)
    wa = weighted_minimax(f, disk_weight(), 8)
    assert wa.sup_error < 1e-12
    assert wa.lp_solves == 1
    assert wa.converged is True


def _bump(t):
    u = np.clip(np.asarray(t, dtype=float) / 3.0, -1.0, 1.0)
    out = np.zeros_like(u)
    m = np.abs(u) < 1
    out[m] = np.exp(-1.0 / (1.0 - u[m] ** 2))
    return out


@pytest.mark.parametrize("grid", [None, 501])
def test_sup_error_matches_fresh_fine_grid(grid):
    """The reported error is the true one, whatever the solve grid."""
    f = CompactifiedFunction(_bump, 0.0, 0.0)
    wa = weighted_minimax(f, disk_weight(), 32, grid=grid)
    th = np.pi * ((np.arange(200_000) + 0.5) / 200_000 - 0.5)
    t = np.tan(th)
    fresh = np.max(np.abs(wa(t) - f(t)))
    assert wa.sup_error == pytest.approx(fresh, rel=1e-2)


def test_sup_error_covers_weight_kinks():
    """On the square the error peaks at the vertex slopes t = +-1."""
    w = ConvexBody.square().weight()
    assert w.kinks == (-1.0, 1.0)
    f = CompactifiedFunction(lambda t: np.exp(-t ** 2), 0.0, 0.0)
    wa = weighted_minimax(f, w, 16)
    t = np.array([-1.0, 1.0])
    assert wa.sup_error >= np.max(np.abs(wa(t) - f(t)))


def test_refinement_out_of_rounds_is_reported(monkeypatch):
    monkeypatch.setattr(weighted_approx, "_REFINE_ROUNDS", 0)
    f = CompactifiedFunction(_bump, 0.0, 0.0)
    wa = weighted_minimax(f, disk_weight(), 32, grid=101)
    assert wa.lp_solves == 1
    assert wa.converged is False


def test_from_callable_limit_probing():
    f = CompactifiedFunction.from_callable(lambda t: t / (1 + t ** 2))
    assert abs(f.at_pos_inf) < 1e-12
    assert abs(f.at_neg_inf) < 1e-12
    g = CompactifiedFunction.from_callable(np.arctan)
    assert g.at_pos_inf == pytest.approx(np.pi / 2, abs=1e-6)
    assert not g.equal_limits


def test_from_callable_rejects_divergent():
    with pytest.raises(ValueError):
        CompactifiedFunction.from_callable(lambda t: t)


def test_unequal_limits_rejected():
    w = disk_weight()
    with pytest.raises(UnequalLimitsError):
        weighted_minimax(CompactifiedFunction(np.arctan, np.pi / 2, -np.pi / 2),
                         w, 4)


def test_odd_degree_rejected():
    with pytest.raises(ValueError):
        weighted_minimax(CompactifiedFunction(np.cos, 0.0, 0.0),
                         disk_weight(), 3)


def test_degree_cap():
    with pytest.raises(DegreeCapError):
        weighted_minimax(CompactifiedFunction(lambda t: 0.0 * t, 0.0, 0.0),
                         disk_weight(), 130)


def test_divide_out_weight():
    w = disk_weight()
    g = divide_out_weight(lambda t: w.W(t) ** 3, w, 2)
    t = np.linspace(-10, 10, 101)
    assert np.max(np.abs(g(t) - w.W(t))) < 1e-12
    assert g.at_pos_inf == pytest.approx(0.0, abs=1e-8)
    with pytest.raises(ValueError):
        divide_out_weight(lambda t: np.ones_like(t), w, 2)
    with pytest.raises(ValueError):
        divide_out_weight(lambda t: np.zeros_like(t), w, -1)


def test_conversion_matches_on_boundary_and_at_infinity():
    body = ConvexBody.ellipse(2.0, 1.0)
    w = body.weight()
    f = CompactifiedFunction(lambda t: np.exp(-t ** 2), 0.0, 0.0)
    wa = weighted_minimax(f, w, 8)
    h = homog_from_weighted(wa, body)
    t = np.linspace(-50, 50, 801)
    pts = body.slope_points(t)
    lhs = h(pts)
    rhs = wa(t)
    scale = 1 + np.max(np.abs(rhs))
    assert np.max(np.abs(lhs - rhs)) < 1e-10 * scale
    # t = infinity corresponds to the vertical boundary point (0, rho)
    top = np.array([0.0, w.rho])
    assert h(top) == pytest.approx(wa.at_inf(), abs=1e-10 * scale)


def test_round_trip_from_sampled_weighted_polynomial():
    """Sample a known W^n p_n, re-solve, and recover it to solver accuracy."""
    w = disk_weight()
    rng = np.random.default_rng(21)
    a = rng.standard_normal(9)
    target = CompactifiedFunction(
        lambda t: w.W(t) ** 8 * np.polynomial.polynomial.polyval(t, a),
        float(a[-1]), float(a[-1]))
    wa = weighted_minimax(target, w, 8)
    assert wa.sup_error < 1e-9
    assert np.max(np.abs(wa.monomial_coeffs() - a)) < 1e-6


def test_eval_points_matches_monomial_homogeneous():
    body = ConvexBody.ellipse(2.0, 1.0)
    w = body.weight()
    f = CompactifiedFunction(lambda t: 1.0 / (1 + t ** 2), 0.0, 0.0)
    wa = weighted_minimax(f, w, 10)
    h = homog_from_weighted(wa, body)
    rng = np.random.default_rng(3)
    pts = rng.uniform(-1.5, 1.5, size=(200, 2))
    scale = 1 + np.max(np.abs(h(pts)))
    assert np.max(np.abs(wa.eval_points(pts) - h(pts))) < 1e-9 * scale


def test_weight_inversion_consistency():
    """Solving against the inverted weight approximates the swapped target."""
    w = disk_weight()
    w0 = invert_weight(w)
    f = CompactifiedFunction(lambda t: 1.0 / (1 + t ** 2), 0.0, 0.0)
    wa = weighted_minimax(f, w, 6)
    g = CompactifiedFunction(
        lambda x: np.where(np.abs(x) > 1e-12,
                           1.0 / (1 + 1.0 / np.maximum(np.abs(x), 1e-300) ** 2),
                           0.0),
        1.0, 1.0)
    wb = weighted_minimax(g, w0, 6)
    # the two problems are images of each other: equal best errors
    assert wb.sup_error == pytest.approx(wa.sup_error, rel=1e-2, abs=1e-6)


def _mp_monomial_coeffs(wa):
    """gref^-nu sum_m [c_m Re + s_m Im]((1+it)^m) (1+t^2)^((nu-m)/2) in
    60 digits, with the matching sums of absolute contributions."""
    nu = wa.nu
    cos_m, sin_m = weighted_approx._harmonics(nu)
    ref = [mpmath.mpf(0)] * (nu + 1)
    scale = [mpmath.mpf(0)] * (nu + 1)
    for coefs, degrees, part in ((wa.cos_coef, cos_m, 0),
                                 (wa.sin_coef, sin_m, 1)):
        for coef, m in zip(coefs, degrees):
            # Re/Im of (1+it)^m: C(m,k) i^k, kept where k has parity `part`
            head = [0] * (m + 1)
            for k in range(part, m + 1, 2):
                head[k] = math.comb(m, k) * (-1) ** ((k - part) // 2)
            j = (nu - m) // 2
            poly = [0] * (nu + 1)
            for k, hk in enumerate(head):
                for l in range(j + 1):
                    poly[k + 2 * l] += hk * math.comb(j, l)
            coef = mpmath.mpf(float(coef))
            for k, pk in enumerate(poly):
                ref[k] += coef * pk
                scale[k] += abs(coef * pk)
    g = mpmath.mpf(float(wa.gref)) ** nu
    return [r / g for r in ref], [s / g for s in scale]


def _expcos_pair(body, degrees):
    """Joint (even, odd) fit of exp(x) cos(y) on Bd(body), with the target."""
    w = body.weight()
    f = lambda p: np.exp(p[:, 0]) * np.cos(p[:, 1])
    top = np.array([[0.0, w.rho]])
    branches = [CompactifiedFunction(
        lambda t, s=s: f(s * body.slope_points(np.asarray(t, dtype=float))),
        float(f(s * top)[0]), float(f(-s * top)[0])) for s in (1.0, -1.0)]
    return weighted_approx._weighted_lp(branches, w, degrees), f


def test_exchange_error_matches_fresh_fine_grid():
    """The square pair's sup error agrees with 400k fresh angles plus the
    vertices, from an LP of under 1000 rows (a dense 32 (n + 1) + 1 grid
    takes 4236)."""
    square = ConvexBody.square()
    (wa_e, wa_o), f = _expcos_pair(square, (32, 31))
    pts = np.vstack([square.boundary_points(400_000),
                     square.params["vertices"]])
    fresh = np.max(np.abs(f(pts) - wa_e.eval_points(pts)
                          - wa_o.eval_points(pts)))
    assert abs(wa_e.sup_error - fresh) <= 1e-3 * fresh
    assert wa_e.lp_rows < 1000


def test_exchange_at_noise_floor():
    """Near-exact fit: the exchange stops early, and a verified error above
    the stop test's floor of 1e-10 max|f| is not called converged."""
    (wa, _), _ = _expcos_pair(ConvexBody.ellipse(2.0, 1.0), (24, 25))
    assert wa.lp_solves <= 3
    assert wa.sup_error < 1e-8
    assert wa.converged is bool(wa.sup_error <= 1e-10 * np.e ** 2)


def test_exchange_returns_no_worse_than_first_round(monkeypatch):
    square = ConvexBody.square()
    (full, _), _ = _expcos_pair(square, (16, 15))
    monkeypatch.setattr(weighted_approx, "_REFINE_ROUNDS", 0)
    (first, _), _ = _expcos_pair(square, (16, 15))
    assert full.lp_solves > 1 and first.lp_solves == 1
    assert full.sup_error <= first.sup_error


def test_exchange_returns_best_iterate(monkeypatch):
    """A worse later round does not replace an earlier iterate."""
    f = CompactifiedFunction(_bump, 0.0, 0.0)
    solve = weighted_approx._solve_lp
    calls = []

    def spoiled(A, b):
        coef, err = solve(A, b)
        calls.append(err)
        # every solve after the first is worse and does not stall
        return (coef + 1.0, 2 * err) if len(calls) > 1 else (coef, err)

    monkeypatch.setattr(weighted_approx, "_solve_lp", spoiled)
    monkeypatch.setattr(weighted_approx, "_REFINE_ROUNDS", 1)
    wa = weighted_minimax(f, disk_weight(), 32)
    assert wa.lp_solves == 2 and wa.converged is False
    monkeypatch.setattr(weighted_approx, "_solve_lp", solve)
    monkeypatch.setattr(weighted_approx, "_REFINE_ROUNDS", 0)
    first = weighted_minimax(f, disk_weight(), 32)
    assert wa.sup_error == first.sup_error
    assert np.array_equal(wa.cos_coef, first.cos_coef)


@pytest.mark.parametrize("body, degrees, coarse", [
    (ConvexBody.ellipse(2.0, 1.0), (24, 25), False),
    (ConvexBody.square(), (80, 79), True),
], ids=["ellipse-24-25", "square-80-79"])
def test_monomial_coeffs_match_mpmath_expansion(body, degrees, coarse, monkeypatch):
    if coarse:
        # criterion 7's top degree.  One LP on the exchange's start grid gives
        # a fit with coefficients of the same size (1e18) as the refined
        # one in a fraction of the time; only the conversion is under test.
        monkeypatch.setattr(weighted_approx, "_REFINE_ROUNDS", 0)
    fits, _ = _expcos_pair(body, degrees)
    with mpmath.workdps(60):
        for wa in fits:
            ref, scale = _mp_monomial_coeffs(wa)
            got = wa.monomial_coeffs()
            assert len(got) == wa.nu + 1
            for k in range(wa.nu + 1):
                err = abs(mpmath.mpf(float(got[k])) - ref[k])
                assert err <= 1e-13 * scale[k], (wa.nu, k)
