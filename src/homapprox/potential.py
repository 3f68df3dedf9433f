"""Logarithmic potential theory engine for the planar route.

Validates the two convexity conditions on a boundary weight, solves for the
support [a, b] of the equilibrium measure of W^lambda, evaluates its density
through principal-value integrals (Chebyshev expansion + closed-form Hilbert
transforms), and checks the equilibrium identity a posteriori.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import quad
from scipy.optimize import brentq, root

from .errors import InvalidWeightError, NoConvergenceError, QuadratureError
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
    provenance: str = "analytic"
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

        return cls(w_fn=w_fn, qp_fn=qp_fn, rho=1.0,
                   provenance=f"family:power(m={m:g})")

    @classmethod
    def constant(cls):
        """W == 1 (fails the second condition; useful as a counterexample)."""
        return cls(w_fn=lambda t: np.ones_like(np.asarray(t, dtype=float)),
                   qp_fn=lambda t: np.zeros_like(np.asarray(t, dtype=float)),
                   rho=np.inf, provenance="family:constant")

    @classmethod
    def from_callable(cls, w_fn, provenance="analytic"):
        """Weight from a plain W(t) evaluator; Q' by five-point differences."""
        def qp_fn(t):
            t, h = np.asarray(t, dtype=float), 1e-6
            q = lambda s: -np.log(w_fn(t + s))
            return (q(-2 * h) - 8 * q(-h) + 8 * q(h) - q(2 * h)) / (12 * h)

        return cls(w_fn=w_fn, qp_fn=qp_fn, rho=_limit_rho(w_fn),
                   provenance=provenance)


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
    """Result of check_weight: per-condition pass/fail and worst triples."""

    cond1_ok: bool
    cond2_ok: bool
    rho: float
    worst1: tuple = None
    worst2: tuple = None

    @property
    def ok(self):
        return self.cond1_ok and self.cond2_ok


def _convexity_scan(ts, vals, tol):
    """Worst second-difference triple; positivity folded in by the caller."""
    if np.any(~np.isfinite(vals)):
        i = int(np.flatnonzero(~np.isfinite(vals))[0])
        return False, (ts[i], vals[i], np.inf)
    second = vals[:-2] - 2 * vals[1:-1] + vals[2:]
    i = int(np.argmin(second))
    ok = second[i] >= -tol * max(1.0, np.max(np.abs(vals)))
    return bool(ok), (ts[i + 1], vals[i + 1], second[i])


def check_weight(w, grid=2001, span=20.0):
    """Diagnose the two positivity/convexity conditions on a uniform grid."""
    tol = _CONVEXITY_TOL * (10 if w.lower_accuracy else 1)
    ts = np.linspace(-span, span, grid)

    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        phi1 = 1.0 / w.W(ts)
    ok1, worst1 = _convexity_scan(ts, phi1, tol)
    if np.any(~(phi1 > 0)):
        ok1 = False

    # |t| / W(-1/t); the value at t = 0 is the limit 1/rho
    rho = w.rho
    phi2 = np.empty_like(ts)
    nz = ts != 0
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        phi2[nz] = np.abs(ts[nz]) / w.W(-1.0 / ts[nz])
    if np.isinf(rho):
        at0 = 0.0
    elif rho == 0.0:
        at0 = np.inf
    else:
        at0 = 1.0 / rho
    phi2[~nz] = at0
    ok2, worst2 = _convexity_scan(ts, phi2, tol)
    if np.any(~(phi2 > 0)):
        ok2 = False

    return WeightDiagnostics(cond1_ok=ok1, cond2_ok=ok2, rho=rho,
                             worst1=worst1, worst2=worst2)


def invert_weight(w):
    """W0(x) = W(-1/x)/|x|; swaps the roles of the two conditions."""
    diag = check_weight(w)
    if not diag.ok:
        raise InvalidWeightError("weight fails the positivity/convexity conditions")

    rho = w.rho
    w0_at_0 = rho

    def w0_fn(t):
        t = np.asarray(t, dtype=float)
        out = np.empty_like(t)
        nz = t != 0
        out[nz] = w.w_fn(-1.0 / t[nz]) / np.abs(t[nz])
        out[~nz] = w0_at_0
        return out

    def qp0_fn(t):
        # Q0(x) = log|x| + Q(-1/x)  =>  Q0'(x) = 1/x + Q'(-1/x)/x^2
        t = np.asarray(t, dtype=float)
        out = np.empty_like(t)
        nz = t != 0
        out[nz] = 1.0 / t[nz] + w.qp_fn(-1.0 / t[nz]) / t[nz] ** 2
        out[~nz] = 0.0  # even-limit placeholder; Q0' has a removable pattern at 0
        return out

    rho0 = float(w.W(np.array(0.0)))
    return Weight(w_fn=w0_fn, qp_fn=qp0_fn, rho=rho0,
                  provenance=f"inverted({w.provenance})",
                  lower_accuracy=w.lower_accuracy)


# ------------------------------------------------------------------ MRS support

_GC_NODES = 2000
_SUPPORT_TOL = 1e-10   # max |F| accepted from the general support solve


def _gc_moments(w, lam, a, b, m=_GC_NODES):
    """Gauss-Chebyshev values of the two endpoint conditions.

    F0 = (1/pi) int lam Q'(t)/sqrt((t-a)(b-t)) dt
    F1 = (1/pi) int lam Q'(t) t/sqrt((t-a)(b-t)) dt - 1
    """
    t = 0.5 * (a + b) + 0.5 * (b - a) * cheb_nodes(m)
    qp = w.Qp(t)
    f0 = lam * np.mean(qp)
    f1 = lam * np.mean(qp * t) - 1.0
    return f0, f1


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

    def mass(self, nodes=4000):
        xi = cheb_nodes(nodes)
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

    def robin_constant(self, grid=201):
        xs = self.mid + self.half * np.cos(np.linspace(0.15, np.pi - 0.15, grid))
        dev = self.log_integral(xs) - self.lam * self.weight.Q(xs)
        return float(-np.mean(dev))


def density(w, lam, support, tail_tol=1e-10, max_degree=4096):
    """Equilibrium density V_lambda from the PV-integral formula."""
    a, b = support
    mid, half = 0.5 * (a + b), 0.5 * (b - a)

    n = 64
    while True:
        ct = cheb_coeffs(w.Qp(mid + half * cheb_nodes(n)))
        scale = max(1.0, np.max(np.abs(ct)))
        if np.max(np.abs(ct[-5:])) < tail_tol * scale:
            break
        n *= 2
        if n > max_degree:
            raise QuadratureError(
                f"Chebyshev expansion of Q' tail above {tail_tol} at cap {max_degree}")
    cu = _t_to_u_coeffs(ct)
    return EquilibriumMeasure(lam=lam, a=a, b=b, weight=w, _cu=cu)


def equilibrium_check(em, grid=401):
    """Max deviation of int log|t-x| V dt - lam*Q(x) from its fitted constant."""
    xs = em.mid + em.half * np.cos(np.linspace(0.05, np.pi - 0.05, grid))
    dev = em.log_integral(xs) - em.lam * em.weight.Q(xs)
    return float(np.max(np.abs(dev - np.mean(dev))))


# ------------------------------------------------------------------ smooth integrals

def smooth_integral_diag(f, interval, eps):
    """Worst ratio deviation of integrals over adjacent eps-length intervals."""
    a, b = interval
    if not (0 < eps < (b - a) / 2):
        raise ValueError("eps must be positive and smaller than half the interval")
    n = int(np.floor((b - a) / eps))
    edges = a + eps * np.arange(n + 1)
    vals = np.empty(n)
    for i in range(n):
        vals[i], _ = quad(f, edges[i], edges[i + 1], limit=200)
    worst = 0.0
    for i in range(n - 1):
        if vals[i + 1] == 0.0:
            return np.inf
        worst = max(worst, abs(vals[i] / vals[i + 1] - 1.0))
    return worst
