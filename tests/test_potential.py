"""Equilibrium measures, weight diagnostics, smooth-integral checks."""

from types import SimpleNamespace

import numpy as np
import pytest

from homapprox import (ConvexBody, NoConvergenceError, Weight, check_weight,
                       invert_weight, mrs_support, density, equilibrium_check,
                       smooth_integral_diag)
from homapprox import potential


def disk_weight():
    return ConvexBody.disk().weight()


def test_arcsine_case():
    """No external field: density is the arcsine law, mass 1, flat potential."""
    em = density(Weight.constant(), 1.0, (-1.0, 1.0))
    xs = np.linspace(-0.99, 0.99, 201)
    arcsine = 1.0 / (np.pi * np.sqrt(1 - xs ** 2))
    assert np.max(np.abs(em.density(xs) - arcsine)) < 1e-8 * np.max(arcsine)
    assert em.mass() == pytest.approx(1.0, abs=1e-8)
    pot = em.log_integral(np.linspace(-0.9, 0.9, 101))
    assert np.max(np.abs(pot - np.log(0.5))) < 1e-8


@pytest.mark.parametrize("lam,b_exact", [(2.0, np.sqrt(3.0)),
                                         (1.5, np.sqrt(8.0)),
                                         (1.2, np.sqrt(35.0))])
def test_disk_weight_support_oracle(lam, b_exact):
    """For W(t)=(1+t^2)^(-1/2), sqrt(1+b^2) = lam/(lam-1) in closed form."""
    a, b = mrs_support(disk_weight(), lam)
    assert a == pytest.approx(-b, abs=1e-8)
    assert b == pytest.approx(b_exact, rel=1e-10)


@pytest.mark.parametrize("shift", [0.3, -1.5])
@pytest.mark.parametrize("lam", [1.2, 1.5, 2.0])
def test_shifted_weight_support_oracle(shift, lam):
    """A shifted disk weight, with Q' by differences, has the shifted support."""
    w = Weight.from_callable(lambda t: 1.0 / np.sqrt(1.0 + (t - shift) ** 2))
    a, b = mrs_support(w, lam)
    half = np.sqrt(lam ** 2 / (lam - 1) ** 2 - 1)
    assert max(abs(a - (shift - half)), abs(b - (shift + half))) <= 1e-8 * (b - a)


def test_support_solve_is_judged_by_its_residuals(monkeypatch):
    """A root solve that reports success away from the root is refused."""
    monkeypatch.setattr(potential, "root", lambda F, x0, method:
                        SimpleNamespace(x=x0, success=True, status=1))
    w = Weight.from_callable(lambda t: 1.0 / np.sqrt(1.0 + (t - 0.3) ** 2))
    with pytest.raises(NoConvergenceError):
        mrs_support(w, 1.5)


def test_disk_weight_equilibrium_properties():
    w = disk_weight()
    bs = []
    for lam in (2.0, 1.5, 1.2):
        a, b = mrs_support(w, lam)
        em = density(w, lam, (a, b))
        assert em.mass() == pytest.approx(1.0, abs=1e-6)
        assert equilibrium_check(em) < 1e-4
        xs = np.linspace(a + 1e-4, b - 1e-4, 301)
        v = em.density(xs)
        assert np.all(v > 0)
        assert np.max(np.abs(v - v[::-1])) < 1e-10 * np.max(v)
        bs.append(b)
    # support grows as lam decreases toward 1
    assert bs[0] < bs[1] < bs[2]


def test_mrs_rejects_lam_at_most_one():
    with pytest.raises(ValueError):
        mrs_support(disk_weight(), 1.0)


def test_check_weight_accepts_body_weights():
    for body in (ConvexBody.disk(), ConvexBody.ellipse(2.0, 1.0),
                 ConvexBody.square()):
        diag = check_weight(body.weight())
        assert diag.ok


def test_check_weight_rejects_constant():
    diag = check_weight(Weight.constant())
    assert not diag.ok
    assert np.isinf(diag.rho)


def test_power_family_weight():
    w = Weight.power_family(2.0)
    diag = check_weight(w)
    assert diag.ok
    assert w.rho == pytest.approx(1.0)


def test_invert_weight_duality():
    """W0(x) = W(-1/x)/|x| swaps the two convexity conditions."""
    w = disk_weight()
    w0 = invert_weight(w)
    xs = np.concatenate([np.linspace(-9, -0.2, 40), np.linspace(0.2, 9, 40)])
    lhs = w.W(-1.0 / xs)
    rhs = w0.W(xs) * np.abs(xs)
    assert np.max(np.abs(lhs - rhs)) < 1e-12
    assert check_weight(w0).ok


def test_weight_inversion_polynomial_duality():
    """W^n(-1/x) p_n(-1/x) = W0^n(x) q_n(x) with q_n(x) = x^n p_n(-1/x)."""
    w = disk_weight()
    w0 = invert_weight(w)
    rng = np.random.default_rng(6)
    n = 6
    a = rng.standard_normal(n + 1)
    p = lambda t: np.polynomial.polynomial.polyval(t, a)
    q = lambda x: x ** n * p(-1.0 / x)
    xs = np.concatenate([np.linspace(-5, -0.3, 30), np.linspace(0.3, 5, 30)])
    lhs = w.W(-1.0 / xs) ** n * p(-1.0 / xs)
    rhs = w0.W(xs) ** n * q(xs)
    assert np.max(np.abs(lhs - rhs)) < 1e-10 * np.max(np.abs(lhs) + 1)


def test_smooth_integral_diag():
    # integrable log singularity smooths out as eps -> 0
    f = lambda x: np.log(1.0 / np.abs(x))
    d1 = smooth_integral_diag(f, (-1.0, 1.0), 0.1)
    d2 = smooth_integral_diag(f, (-1.0, 1.0), 0.01)
    assert d2 < d1
    # genuine jump stays non-smooth at a fixed positive level
    step = lambda x: 1.0 if x > 0 else 2.0
    d3 = smooth_integral_diag(step, (-1.0, 1.0), 0.05)
    assert d3 > 0.4
    with pytest.raises(ValueError):
        smooth_integral_diag(f, (-1.0, 1.0), 2.0)
