"""Weighted minimax on the compactified line and the homogeneous conversion."""

import mpmath
import numpy as np
import pytest

from homapprox import (ConvexBody, CompactifiedFunction, weighted_minimax,
                       approximate_theorem2, UnequalLimitsError, DegreeCapError)
from homapprox import pipeline, weighted_approx
from homapprox.weighted_approx import _homog_from_monomial


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


def test_sup_error_matches_fresh_fine_grid():
    """The reported error is the true one, not the solve grid's."""
    f = CompactifiedFunction(_bump, 0.0, 0.0)
    wa = weighted_minimax(f, disk_weight(), 32)
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
    wa = weighted_minimax(f, disk_weight(), 32)
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


def test_conversion_matches_on_boundary_and_at_infinity():
    body = ConvexBody.ellipse(2.0, 1.0)
    w = body.weight()
    f = CompactifiedFunction(lambda t: np.exp(-t ** 2), 0.0, 0.0)
    wa = weighted_minimax(f, w, 8)
    h = _homog_from_monomial(wa.monomial_coeffs(), wa.nu)
    t = np.linspace(-50, 50, 801)
    pts = body.slope_points(t)
    lhs = h(pts)
    rhs = wa(t)
    scale = 1 + np.max(np.abs(rhs))
    assert np.max(np.abs(lhs - rhs)) < 1e-10 * scale
    # t = infinity corresponds to the vertical boundary point (0, rho)
    top = np.array([0.0, w.rho])
    assert h(top) == pytest.approx(wa.eval_points(top[None])[0],
                                   abs=1e-10 * scale)


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
    h = _homog_from_monomial(wa.monomial_coeffs(), wa.nu)
    rng = np.random.default_rng(3)
    pts = rng.uniform(-1.5, 1.5, size=(200, 2))
    scale = 1 + np.max(np.abs(h(pts)))
    assert np.max(np.abs(wa.eval_points(pts) - h(pts))) < 1e-9 * scale


def _mp_monomial_coeffs(wa):
    """The monomial coefficients of wa in 60 digits from its (coef, rec),
    with the matching sums of absolute contributions.

    Per family, P_j = r^(2j) p_j(x^2/r^2) follows
    beta_j P_j = (x^2 - alpha_j r^2) P_(j-1) - beta_(j-1) r^4 P_(j-2), and
    h = gref^-nu sum pref(x, y) (x^2+y^2)^(J-j) coef_j P_j.  The sums of
    absolute values run the same recurrence on |x^2 - alpha_j r^2| and
    |P_j|.
    """
    nu = wa.nu
    mp = lambda v: [mpmath.mpf(float(c)) for c in v]

    def times(a, b):
        out = [mpmath.mpf(0)] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
        return out

    def plus(a, b):
        n = max(len(a), len(b))
        a, b = a + [0] * (n - len(a)), b + [0] * (n - len(b))
        return [u + v for u, v in zip(a, b)]

    r2 = mp([1, 0, 1])
    ref = [mpmath.mpf(0)] * (nu + 1)
    scale = [mpmath.mpf(0)] * (nu + 1)
    lo = 0
    for pref, (alpha, beta) in zip(weighted_approx._PREFS[nu % 2], wa.rec):
        coef, alpha, beta = mp(wa.coef[lo:lo + len(beta)]), mp(alpha), mp(beta)
        lo += len(beta)
        last = len(beta) - 1
        rows = []
        for signed in (False, True):
            ab = abs if signed else (lambda v: v)
            prev, cur = [mpmath.mpf(0)], [1 / beta[0]]      # r^2 P_-1, P_0
            total = [mpmath.mpf(0)]
            for j in range(last + 1):
                if j:
                    q = [ab(1 - alpha[j]), 0, ab(-alpha[j])]
                    cur, prev = ([v / beta[j] for v in plus(
                        times(cur, q),
                        [ab(-beta[j - 1]) * v for v in times(prev, r2)])],
                        times(cur, r2))
                # Horner in x^2 + y^2: sum_j (x^2+y^2)^(J-j) coef_j P_j
                total = plus(times(total, r2), [ab(coef[j]) * v for v in cur])
            rows.append(times(total, mp(pref)))
        if last >= 0:
            ref = plus(ref, rows[0])
            scale = plus(scale, rows[1])
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


def test_fits_write_nothing_to_the_terminal(capfd):
    """HiGHS logs to the process's stdout unless told not to: neither route
    into the exchange writes to stdout or stderr."""
    weighted_minimax(CompactifiedFunction(_bump, 0.0, 0.0), disk_weight(), 16)
    approximate_theorem2(ConvexBody.square(),
                         lambda p: np.exp(p[:, 0]) * np.cos(p[:, 1]), 12)
    assert capfd.readouterr() == ("", "")


def test_exchange_adds_no_row_twice(monkeypatch):
    """A residual peak within rounding of the LP error is an earlier round's
    peak, active in the LP: the exchange does not add its row again (the
    square pair at n = 32 re-added two in its third LP)."""
    rows, systems = [], []

    class Recording(weighted_approx._ExchangeLP):
        def __init__(self, A, b):
            rows.append(A)
            super().__init__(A, b)

        def add(self, A, b):
            rows.append(A)
            super().add(A, b)

        def solve(self):
            systems.append(np.vstack(rows))
            return super().solve()

    monkeypatch.setattr(weighted_approx, "_ExchangeLP", Recording)
    _expcos_pair(ConvexBody.square(), (32, 31))
    assert len(systems) > 1
    for A in systems:
        assert len(np.unique(A, axis=0)) == len(A)


def test_exchange_peaks_run_across_the_seam():
    """The pair's branches continue each other around the boundary: a
    residual whose only local maximum is branch 1's node 0, at the seam
    with branch 0's last node, gives that one node, not one per branch
    end.  The kink columns past the grid are not candidates."""
    m = weighted_approx._VERIFY_GRID
    i = np.arange(2 * m)
    resid = np.hstack([(1.0 - np.abs(i - m) / (2 * m)).reshape(2, m),
                       np.full((2, 2), 5.0)])
    branch, node = weighted_approx._peaks(resid, 0.0, 10)
    assert branch.tolist() == [1] and node.tolist() == [0]
    # the same tent on one branch peaks at its middle node alone
    one = (1.0 - np.abs(np.arange(m) - m // 2) / m)[None]
    branch, node = weighted_approx._peaks(one, 0.0, 10)
    assert branch.tolist() == [0] and node.tolist() == [m // 2]


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
    solve = weighted_approx._ExchangeLP.solve
    calls = []

    def spoiled(self):
        coef, err = solve(self)
        calls.append(err)
        # every solve after the first is worse and does not stall
        return (coef + 1.0, 2 * err) if len(calls) > 1 else (coef, err)

    monkeypatch.setattr(weighted_approx._ExchangeLP, "solve", spoiled)
    monkeypatch.setattr(weighted_approx, "_REFINE_ROUNDS", 1)
    wa = weighted_minimax(f, disk_weight(), 32)
    assert wa.lp_solves == 2 and wa.converged is False
    monkeypatch.setattr(weighted_approx._ExchangeLP, "solve", solve)
    monkeypatch.setattr(weighted_approx, "_REFINE_ROUNDS", 0)
    first = weighted_minimax(f, disk_weight(), 32)
    assert wa.sup_error == first.sup_error
    assert np.array_equal(wa.coef, first.coef)


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


def _longdouble_error(fits, f, pts, chunk=10_000):
    """max |f - the weighted fits' sum| at planar points, f and the
    recurrence of `_columns` run in long double, by chunks of points."""
    err = 0.0
    for p in np.array_split(pts.astype(np.longdouble), -(-len(pts) // chunk)):
        r = np.hypot(p[:, 0], p[:, 1])
        value = sum(weighted_approx._columns(
            (r / wa.gref) ** wa.nu, p[:, 0] / r, p[:, 1] / r, wa.nu,
            wa.rec)[0] @ wa.coef for wa in fits)
        err = max(err, float(np.max(np.abs(f(p) - value))))
    return err


@pytest.mark.parametrize("axes, n", [((2.0, 1.0), 64), ((4.0, 1.0), 32)],
                         ids=["ellipse-2-1-n64", "ellipse-4-1-n32"])
def test_eccentric_ellipse_pair_is_accurate_and_honest(axes, n, monkeypatch):
    """exp(x) cos(y) stays accurate on eccentric ellipses at high degree (a
    trigonometric LP basis returned 15.2 and 14.6 here), and the report
    agrees with a fresh boundary grid.  Below 1e-9 max(1, max|f|), the floor
    of the bench's honesty check, fresh grids of 200k and 2M points differ by
    several percent, and float evaluation noise is as large as the error; there
    the report must not be below the long double error of the returned fit on
    the fresh points."""
    fits = []

    def recording(*args):
        fits.extend(weighted_lp(*args))
        return fits

    weighted_lp = pipeline._weighted_lp
    monkeypatch.setattr(pipeline, "_weighted_lp", recording)
    body = ConvexBody.ellipse(*axes)
    f = lambda p: np.exp(p[:, 0]) * np.cos(p[:, 1])
    pair = approximate_theorem2(body, f, n)
    pts = body.boundary_points(200_000, seed=11)
    fv = f(pts)
    fresh = float(np.max(np.abs(fv - pair(pts))))
    assert pair.report.sup_error <= 1e-9
    if fresh > 1e-9 * max(1.0, float(np.max(np.abs(fv)))):
        assert pair.report.sup_error == pytest.approx(fresh, rel=1e-2)
    else:
        assert pair.report.sup_error >= _longdouble_error(fits, f, pts)


def test_constant_on_eccentric_weight_at_degree_cap():
    """f = 1 on the ellipse (2, 1) weight at n = 128 is fitted (a
    trigonometric LP basis returned the zero approximant, error 1, flagged
    converged), and the report agrees with fresh angles."""
    f = CompactifiedFunction(lambda t: np.ones_like(t), 1.0, 1.0)
    wa = weighted_minimax(f, ConvexBody.ellipse(2.0, 1.0).weight(), 128)
    assert wa.sup_error <= 1e-6
    th = np.pi * ((np.arange(100_000) + 0.5) / 100_000 - 0.5)
    fresh = float(np.max(np.abs(wa(np.tan(th)) - 1.0)))
    assert wa.sup_error == pytest.approx(fresh, rel=1e-2)
