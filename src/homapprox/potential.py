"""Logarithmic potential theory engine for the planar route.

Validates the two convexity conditions on a boundary weight, solves for the
support [a, b] of the equilibrium measure of W^lambda, evaluates its density
through principal-value integrals (Chebyshev expansion + closed-form Hilbert
transforms), and checks the equilibrium identity a posteriori.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import brentq, root

from .errors import NoConvergenceError, QuadratureError
from .polys import cheb_coeffs, cheb_nodes

_CONVEXITY_TOL = 1e-9


@dataclass
class Weight:
    """External-field pair (W, Q = -log W) on the compactified line.

    `w_fn` and `qp_fn` must be vectorized over finite arrays; `rho` is the
    limit of |t| W(t) at both infinities.  `kinks` lists the finite t where W
    is not differentiable (the slopes of a polygon's vertices).
    """

    w_fn: object
    qp_fn: object
    rho: float
    lower_accuracy: bool = False
    kinks: tuple = ()

    def W(self, t):
        return self.w_fn(np.asarray(t, dtype=float))

    def Q(self, t):
        return -np.log(self.W(t))

    def Qp(self, t):
        return self.qp_fn(np.asarray(t, dtype=float))

    @property
    def is_even(self):
        ts = np.linspace(0.1, 37.0, 23)
        return bool(np.max(np.abs(self.W(ts) - self.W(-ts))) < 1e-12 * np.max(self.W(ts)))

    @classmethod
    def power_family(cls, m):
        """W(t) = (1 + |t|^m)^(-1/m), the standard example family."""
        m = float(m)

        def w_fn(t):
            return (1 + np.abs(t) ** m) ** (-1.0 / m)

        def qp_fn(t):
            t = np.asarray(t, dtype=float)
            return np.sign(t) * np.abs(t) ** (m - 1) / (1 + np.abs(t) ** m)

        return cls(w_fn=w_fn, qp_fn=qp_fn, rho=1.0)

    @classmethod
    def constant(cls):
        """W == 1 (fails the second condition; useful as a counterexample)."""
        return cls(w_fn=lambda t: np.ones_like(np.asarray(t, dtype=float)),
                   qp_fn=lambda t: np.zeros_like(np.asarray(t, dtype=float)),
                   rho=np.inf)

    @classmethod
    def from_callable(cls, w_fn):
        """Weight from a plain W(t) evaluator; Q' by five-point differences."""
        def qp_fn(t):
            t, h = np.asarray(t, dtype=float), 1e-6
            q = lambda s: -np.log(w_fn(t + s))
            return (q(-2 * h) - 8 * q(-h) + 8 * q(h) - q(2 * h)) / (12 * h)

        return cls(w_fn=w_fn, qp_fn=qp_fn, rho=_limit_rho(w_fn))


def _limit_rho(w_fn):
    """Numeric limit of |t| W(t); inf/0 when it diverges/vanishes."""
    v6 = 1e6 * 0.5 * (w_fn(np.array(1e6)) + w_fn(np.array(-1e6)))
    v8 = 1e8 * 0.5 * (w_fn(np.array(1e8)) + w_fn(np.array(-1e8)))
    if not np.isfinite(v8) or v8 > 3.0 * max(v6, 1e-300):
        return np.inf
    if v8 < v6 / 3.0:
        return 0.0
    return float(v8)


@dataclass
class WeightDiagnostics:
    """Result of check_weight: per-condition pass/fail and rho."""

    cond1_ok: bool
    cond2_ok: bool
    rho: float

    @property
    def ok(self):
        return self.cond1_ok and self.cond2_ok


def _convexity_scan(vals, tol):
    """Whether vals are finite, positive and convex up to tol on the grid."""
    if np.any(~np.isfinite(vals)) or np.any(~(vals > 0)):
        return False
    second = vals[:-2] - 2 * vals[1:-1] + vals[2:]
    return bool(np.min(second) >= -tol * max(1.0, np.max(np.abs(vals))))


def check_weight(w):
    """Diagnose the two positivity/convexity conditions on a uniform grid."""
    tol = _CONVEXITY_TOL * (10 if w.lower_accuracy else 1)
    ts = np.linspace(-20.0, 20.0, 2001)

    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        phi1 = 1.0 / w.W(ts)

    # |t| / W(-1/t); the value at t = 0 is the limit 1/rho
    phi2 = np.empty_like(ts)
    nz = ts != 0
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        phi2[nz] = np.abs(ts[nz]) / w.W(-1.0 / ts[nz])
        phi2[~nz] = np.divide(1.0, w.rho)
    return WeightDiagnostics(cond1_ok=_convexity_scan(phi1, tol),
                             cond2_ok=_convexity_scan(phi2, tol), rho=w.rho)


# ------------------------------------------------------------------ MRS support

_GC_NODES = 2000
# Gauss-Legendre rule for each kink-free piece of a split moment integral
_GL_X, _GL_W = np.polynomial.legendre.leggauss(64)
_SUPPORT_TOL = 1e-10   # max |F| accepted from the general support solve


def _gc_moments(w, lam, a, b):
    """Quadrature values of the two endpoint conditions.

    F0 = (1/pi) int lam Q'(t)/sqrt((t-a)(b-t)) dt
    F1 = (1/pi) int lam Q'(t) t/sqrt((t-a)(b-t)) dt - 1

    Under t = (a+b)/2 + (b-a)/2 cos(phi) both are means over phi in [0, pi],
    taken by the 2000-node (_GC_NODES) Gauss-Chebyshev (midpoint in phi)
    rule.  That rule is only first-order across a jump of Q', so when kinks
    of W lie in (a, b), [0, pi] is split at their phi and each piece gets
    Gauss-Legendre.
    """
    c, r = 0.5 * (a + b), 0.5 * (b - a)
    kinks = [k for k in w.kinks if a < k < b]
    if not kinks:
        t = c + r * cheb_nodes(_GC_NODES)
        qp = w.Qp(t)
        f0 = lam * np.mean(qp)
        f1 = lam * np.mean(qp * t) - 1.0
        return f0, f1
    phi = np.sort(np.arccos(np.clip((np.array(kinks) - c) / r, -1.0, 1.0)))
    ends = np.concatenate([[0.0], phi, [np.pi]])
    mid, half = (ends[1:] + ends[:-1]) / 2, (ends[1:] - ends[:-1]) / 2
    t = c + r * np.cos((mid[:, None] + half[:, None] * _GL_X).ravel())
    wt = (half[:, None] * _GL_W).ravel() / np.pi
    qp = w.Qp(t)
    return lam * np.sum(wt * qp), lam * np.sum(wt * qp * t) - 1.0


def mrs_support(w, lam):
    """Support endpoints (a, b) of the equilibrium measure for W^lambda.

    The symmetric support [-b, b] solves the second endpoint condition by
    bracketing; it is the answer for an even weight and the starting point of
    a root solve of both conditions otherwise.  That solve is accepted only
    by its residuals, never by the solver's own status.
    """
    if lam <= 1:
        raise ValueError("mrs_support needs lambda > 1")

    def g(b):
        return _gc_moments(w, lam, -b, b)[1]

    b_hi = 1.0
    while g(b_hi) < 0:
        b_hi *= 2
        if b_hi > 1e8:
            raise NoConvergenceError("no finite support bracket found",
                                     residuals=g(b_hi / 2))
    b = brentq(g, 1e-6, b_hi, xtol=1e-13, rtol=1e-15)
    if w.is_even:
        return (-b, b)

    def F(ab):
        return np.array(_gc_moments(w, lam, ab[0], ab[1]))

    a, b = root(F, np.array([-b, b]), method="hybr").x
    f = F((a, b))
    if not (a < b and np.max(np.abs(f)) <= _SUPPORT_TOL):
        raise NoConvergenceError("support solve did not converge", residuals=f)
    return (float(a), float(b))


# ------------------------------------------------------------------ density

_TAIL_TOL = 1e-10      # relative size of the last Chebyshev coefficients of Q'
_DENSITY_CAP = 4096    # most Chebyshev nodes the density's expansion may use

def _t_to_u_coeffs(ct):
    """Second-kind coefficients of sum ct[j] T_j via T_j = (U_j - U_{j-2})/2."""
    n = len(ct)
    cu = np.zeros(n)
    if n > 0:
        cu[0] = ct[0] - (ct[2] / 2 if n > 2 else 0.0)
    for j in range(1, n):
        cu[j] = ct[j] / 2 - (ct[j + 2] / 2 if j + 2 < n else 0.0)
    return cu


@dataclass
class EquilibriumMeasure:
    """Equilibrium measure of W^lambda: support, density, Robin constant."""

    lam: float
    a: float
    b: float
    weight: Weight
    _cu: np.ndarray = field(repr=False, default=None)

    @property
    def mid(self):
        return 0.5 * (self.a + self.b)

    @property
    def half(self):
        return 0.5 * (self.b - self.a)

    def _S(self, xi):
        # S(xi) = sum_j cu[j] T_{j+1}(xi)
        return np.polynomial.chebyshev.chebval(xi, np.concatenate([[0.0], self._cu]))

    def density(self, x):
        """V_lambda(x) on the open support; 0 outside."""
        x = np.asarray(x, dtype=float)
        xi = (x - self.mid) / self.half
        inside = np.abs(xi) < 1
        out = np.zeros_like(x)
        xi_in = xi[inside]
        out[inside] = (1.0 / self.half - self.lam * self._S(xi_in)) / (
            np.pi * np.sqrt(1 - xi_in ** 2))
        return out

    def mass(self):
        """Total mass of the density.  It is 1 by construction for any
        support, so it does not certify the support; `mrs_support` does."""
        xi = cheb_nodes(4000)
        return float(self.half * np.mean(1.0 / self.half - self.lam * self._S(xi)))

    def log_integral(self, x):
        """int log|t - x| V(t) dt, evaluated spectrally for x in the support."""
        x = np.asarray(x, dtype=float)
        xi = (x - self.mid) / self.half
        # T-coefficients of (1/half - lam*S(u)):
        d = np.concatenate([[1.0 / self.half], -self.lam * self._cu])
        ks = np.arange(1, len(d))
        acc = np.log(self.half) - np.log(2.0) * d[0] * self.half
        # (1/pi) int log|u - xi| T_k(u)/sqrt(1-u^2) du = -T_k(xi)/k for k >= 1
        tk = np.polynomial.chebyshev.chebvander(xi, len(d) - 1)[..., 1:]
        acc = acc - self.half * (tk @ (d[1:] / ks))
        return acc

    def robin_constant(self):
        xs = self.mid + self.half * np.cos(np.linspace(0.15, np.pi - 0.15, 201))
        dev = self.log_integral(xs) - self.lam * self.weight.Q(xs)
        return float(-np.mean(dev))


def density(w, lam, support):
    """Equilibrium density V_lambda from the PV-integral formula."""
    a, b = support
    mid, half = 0.5 * (a + b), 0.5 * (b - a)

    n = 64
    while True:
        ct = cheb_coeffs(w.Qp(mid + half * cheb_nodes(n)))
        scale = max(1.0, np.max(np.abs(ct)))
        if np.max(np.abs(ct[-5:])) < _TAIL_TOL * scale:
            break
        n *= 2
        if n > _DENSITY_CAP:
            raise QuadratureError(f"Chebyshev expansion of Q' tail above "
                                  f"{_TAIL_TOL} at cap {_DENSITY_CAP}")
    cu = _t_to_u_coeffs(ct)
    return EquilibriumMeasure(lam=lam, a=a, b=b, weight=w, _cu=cu)


def equilibrium_check(em):
    """Max deviation of int log|t-x| V dt - lam*Q(x) from its fitted constant.

    The density solves this identity on whatever support it is given, so the
    deviation is at rounding level on a wrong support too: it checks the
    density's construction, not the support, which `mrs_support` certifies.
    """
    xs = em.mid + em.half * np.cos(np.linspace(0.05, np.pi - 0.05, 401))
    dev = em.log_integral(xs) - em.lam * em.weight.Q(xs)
    return float(np.max(np.abs(dev - np.mean(dev))))
