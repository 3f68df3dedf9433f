"""Equilibrium measures and weight diagnostics."""

from types import SimpleNamespace

import mpmath
import numpy as np
import pytest

from homapprox import (ConvexBody, NoConvergenceError, Weight, check_weight,
                       mrs_support, density, equilibrium_check)
from homapprox import potential
from homapprox.expr import line_function, parse_expr


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


def _square_support_condition(lam, b):
    """(lam/pi) int Q'(t) t / sqrt(b^2 - t^2) dt - 1 for the square's weight
    W(t) = 1/max(1, |t|), in 40-digit quadrature split at its kinks +/-1."""
    with mpmath.workdps(40):
        b = mpmath.mpf(b)
        tail = mpmath.quad(lambda t: 1 / mpmath.sqrt(b * b - t * t), [1, b])
        return float(2 * lam / mpmath.pi * tail - 1)


@pytest.mark.parametrize("lam", [1.2, 1.5, 2.0])
def test_square_weight_support_oracle(lam):
    """The square's support is +/-1/cos(pi/(2 lam)), across its kinks."""
    b_exact = 1 / np.cos(np.pi / (2 * lam))
    assert abs(_square_support_condition(lam, b_exact)) < 1e-14
    a, b = mrs_support(ConvexBody.square().weight(), lam)
    assert a == -b
    assert b == pytest.approx(b_exact, rel=1e-9)


@pytest.mark.parametrize("lam", [1.2, 1.5, 2.0])
def test_hexagon_weight_support_solves_both_conditions(lam):
    """An asymmetric hexagon's weight is neither even nor smooth; its support
    solves both endpoint conditions in an independent quadrature."""
    v = np.array([(1.0, 0.2), (0.3, 1.0), (-0.8, 0.7)])
    w = ConvexBody.polygon(np.concatenate([v, -v])).weight()
    a, b = mrs_support(w, lam)
    pieces = [a] + [k for k in w.kinks if a < k < b] + [b]
    with mpmath.workdps(30):
        for power, want in ((0, 0.0), (1, 1.0)):
            val = mpmath.quad(lambda t: float(w.Qp(float(t))) * t ** power
                              / mpmath.sqrt((t - a) * (b - t)), pieces)
            assert abs(float(lam * val / mpmath.pi) - want) < 1e-9


def test_support_solve_is_judged_by_its_residuals(monkeypatch):
    """A root solve that reports success away from the root is refused."""
    monkeypatch.setattr(potential, "root", lambda F, x0, method:
                        SimpleNamespace(x=x0, success=True, status=1))
    w = Weight.from_callable(lambda t: 1.0 / np.sqrt(1.0 + (t - 0.3) ** 2))
    with pytest.raises(NoConvergenceError):
        mrs_support(w, 1.5)


def test_weight_even_at_sample_points_gets_a_solved_support():
    """An odd perturbation of the disk weight vanishes at +/-(0.1 + 36.9 k/22),
    so W(t) and W(-t) agree at 23 points from 0.1 to 37 but not at t = 1; its
    support solves both endpoint conditions, which the symmetric support
    fails with F0 = 0.032."""
    w = Weight.from_callable(line_function(parse_expr(
        "(1+t^2)^(-0.5) * (1 + 0.3*t/(1+t^2)*sin(1.873036270432939*(t-0.1))"
        "*sin(1.873036270432939*(t+0.1)))")))
    ts = np.linspace(0.1, 37.0, 23)
    assert np.max(np.abs(w.W(ts) - w.W(-ts))) < 1e-12 * np.max(w.W(ts))
    assert abs(w.W(1.0) - w.W(-1.0)) > 0.18
    a, b = mrs_support(w, 1.5)
    assert np.max(np.abs(potential._gc_moments(w, 1.5, a, b))) <= potential._SUPPORT_TOL


_EVEN_WEIGHTS = {
    "disk": lambda: ConvexBody.disk().weight(),
    "ellipse": lambda: ConvexBody.ellipse(2.0, 1.0).weight(),
    "square": lambda: ConvexBody.square().weight(),
    "pnorm4": lambda: ConvexBody.pnorm_ball(4.0).weight(),
    "power1.5": lambda: Weight.power_family(1.5),
    "power2": lambda: Weight.power_family(2.0),
}


@pytest.mark.parametrize("name, lam, b_hex", [
    ("disk", 1.2, "0x1.7aa10d193c233p+2"),
    ("disk", 1.5, "0x1.6a09e667f3bcep+1"),
    ("disk", 2.0, "0x1.bb67ae8584d09p+0"),
    ("disk", 4.0, "0x1.c38aa37c3f68dp-1"),
    ("ellipse", 1.2, "0x1.7aa10d193c217p+1"),
    ("ellipse", 1.5, "0x1.6a09e667f3bcep+0"),
    ("ellipse", 2.0, "0x1.bb67ae8584c26p-1"),
    ("ellipse", 4.0, "0x1.c38aa37c3f67dp-2"),
    ("square", 1.2, "0x1.ee8dd4748bf12p+1"),
    ("square", 1.5, "0x1.0000000000000p+1"),
    ("square", 2.0, "0x1.6a09e667f3bcdp+0"),
    ("square", 4.0, "0x1.1517a7bdb3895p+0"),
    ("pnorm4", 1.2, "0x1.16683a501ef73p+2"),
    ("pnorm4", 1.5, "0x1.2539ebc36966cp+1"),
    ("pnorm4", 2.0, "0x1.9831c2255ea97p+0"),
    ("pnorm4", 4.0, "0x1.0c85296e8150dp+0"),
    ("power1.5", 1.2, "0x1.df7327e5b797dp+2"),
    ("power1.5", 1.5, "0x1.9c9d62edc30aap+1"),
    ("power1.5", 2.0, "0x1.ca0a9c9558a65p+0"),
    ("power1.5", 4.0, "0x1.88120203e3e31p-1"),
    ("power2", 1.2, "0x1.7aa10d193c230p+2"),
    ("power2", 1.5, "0x1.6a09e667f3bcep+1"),
    ("power2", 2.0, "0x1.bb67ae8584d09p+0"),
    ("power2", 4.0, "0x1.c38aa37c3f68dp-1"),
])
def test_even_weight_keeps_its_symmetric_support(name, lam, b_hex):
    """An even weight's bracketed support [-b, b] solves both conditions and
    is returned as bracketed, bit for bit, without a root solve."""
    a, b = mrs_support(_EVEN_WEIGHTS[name](), lam)
    assert (a, b) == (-float.fromhex(b_hex), float.fromhex(b_hex))


def test_t_to_u_coeffs_match_the_termwise_loop():
    """The vectorized T-to-U conversion is, bit for bit, the loop over
    T_j = (U_j - U_(j-2)) / 2 term by term."""
    rng = np.random.default_rng(7)
    for n in (0, 1, 2, 3, 5, 64):
        ct = rng.standard_normal(n)
        ref = np.zeros(n)
        if n > 0:
            ref[0] = ct[0] - (ct[2] / 2 if n > 2 else 0.0)
        for j in range(1, n):
            ref[j] = ct[j] / 2 - (ct[j + 2] / 2 if j + 2 < n else 0.0)
        assert np.array_equal(potential._t_to_u_coeffs(ct), ref), n


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


@pytest.mark.parametrize("lam", [1.5, 2.0, 4.0])
def test_power_weight_m_1_is_the_diamond_weight(lam):
    """W = (1 + |t|)^-1 is the diamond's weight; both declare its corner at
    t = 0, so their supports agree to the last bit."""
    w = Weight.power_family(1)
    assert w.kinks == (0.0,)
    assert (mrs_support(w, lam)
            == mrs_support(ConvexBody.pnorm_ball(1).weight(), lam))


def test_power_family_weight():
    w = Weight.power_family(2.0)
    diag = check_weight(w)
    assert diag.ok
    assert w.rho == pytest.approx(1.0)
