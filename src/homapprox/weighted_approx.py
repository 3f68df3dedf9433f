"""Best uniform approximation by weighted polynomials W^n p_n on the line.

The family {W^n p_n : deg p_n <= n} restricted to the compactified line is
re-parametrized through the direction angle th = arctan(t): with
g(t) = W(t) sqrt(1+t^2) it equals g^n times the trigonometric polynomials of
degree <= n and parity n.  The discrete minimax problem is solved as a linear
program over a theta-uniform grid in that basis, which stays well conditioned
where raw monomials t^k fail, and converts to monomial coefficients by one
Horner pass in (1 + t^2) over the parts Re/Im (1 + i t)^m.

One solver handles one parity or an even/odd pair solved jointly, by a
multi-point exchange.  The LP starts on 4 (n + 1) + 1 nodes for the largest
degree n; each fit is checked on a fixed grid of 40010 nodes, and the kinks of
W (a polygon's vertex slopes) join both.  While the verified error exceeds the
LP error by more than 1%, every local maximum above the LP error of a branch's
residual on that periodic grid joins the LP, at most twice the basis size of
them (the largest) per round, which bounds the growth at the noise floor; at
most four rounds.  The stop test has an absolute floor of 1e-10 max|f|: the LP
objective of a near-exact fit falls below the solver's tolerance (~1e-7), so a
purely relative test would never pass.  Added nodes can only raise the LP
optimum, so a round whose LP error does not rise has stalled at that tolerance
and stops unconverged.  The iterate returned is the one with the least sup
error, the larger of its LP and verified errors.  The LP stays on HiGHS's
default: its interior point loses digits on exact fits and stalls at n = 80.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import solve_triangular
from scipy.optimize import linprog

from .errors import DegreeCapError, UnequalLimitsError, NoConvergenceError
from .polys import HomogeneousPoly, _lift_graded

_DEGREE_CAP = 128
_VERIFY_GRID = 40010
_REFINE_ROUNDS = 4
_LIMIT_PROBES = (1e6, 1e8)


@dataclass
class CompactifiedFunction:
    """Continuous function on the line together with its limits at infinity."""

    fn: object
    at_pos_inf: float
    at_neg_inf: float

    def __call__(self, t):
        return self.fn(np.asarray(t, dtype=float))

    @property
    def equal_limits(self):
        scale = max(1.0, abs(self.at_pos_inf), abs(self.at_neg_inf))
        return abs(self.at_pos_inf - self.at_neg_inf) <= 1e-9 * scale

    @classmethod
    def from_callable(cls, fn, rtol=1e-5):
        # Richardson step assuming f ~ L + c/t at the probe points; exact
        # for first-order rational decay, so limits like t/(1+t^2) -> 0
        # come out clean instead of O(1/probe).
        ratio = _LIMIT_PROBES[1] / _LIMIT_PROBES[0]
        limits = []
        for sign in (1.0, -1.0):
            v = [float(fn(np.array(sign * p))) for p in _LIMIT_PROBES]
            if not all(np.isfinite(v)):
                raise ValueError("function has no finite limit at infinity")
            if abs(v[1] - v[0]) > rtol * max(1.0, abs(v[1])):
                raise ValueError("function does not settle to a limit at infinity")
            limits.append(v[1] - (v[0] - v[1]) / (ratio - 1.0))
        return cls(fn=fn, at_pos_inf=limits[0], at_neg_inf=limits[1])


def divide_out_weight(f, w, s):
    """f / W^s as a CompactifiedFunction; rejects non-finite limits."""
    if s < 0:
        raise ValueError("s must be nonnegative")
    if not isinstance(f, CompactifiedFunction):
        f = CompactifiedFunction.from_callable(f)

    def g(t):
        return f(t) / w.W(t) ** s

    return CompactifiedFunction.from_callable(g, rtol=1e-4)


def _harmonics(nu):
    """(cos-degrees, sin-degrees) of the trig basis with parity nu."""
    if nu % 2 == 0:
        cos_m = list(range(0, nu + 1, 2))
        sin_m = list(range(2, nu + 1, 2))
    else:
        cos_m = list(range(1, nu + 1, 2))
        sin_m = list(range(1, nu + 1, 2))
    return cos_m, sin_m


@dataclass
class WeightedApproximant:
    """Weighted polynomial W^nu p_nu in the stable trigonometric basis."""

    nu: int
    weight: object
    gref: float
    cos_coef: np.ndarray
    sin_coef: np.ndarray
    sup_error: float
    lp_solves: int
    lp_rows: int
    converged: bool
    _mono: np.ndarray = field(default=None, repr=False)

    def _gtilde(self, t):
        return self.weight.W(t) * np.hypot(1.0, t) / self.gref

    def _trig(self, th):
        """The trig sum sum_m c_m cos(m th) + s_m sin(m th) at angles th."""
        cos_m, sin_m = _harmonics(self.nu)
        acc = np.zeros_like(th)
        for c, m in zip(self.cos_coef, cos_m):
            acc += c * np.cos(m * th)
        for s, m in zip(self.sin_coef, sin_m):
            acc += s * np.sin(m * th)
        return acc

    def __call__(self, t):
        """Value of W^nu p_nu at finite t (vectorized)."""
        t = np.asarray(t, dtype=float)
        return self._gtilde(t) ** self.nu * self._trig(np.arctan(t))

    def eval_points(self, pts):
        """Value of the matching homogeneous polynomial at planar points.

        With r = |p| and theta = atan2(y, x), homogeneity plus the parity of
        the trig sum give h(p) = (r/gref)^nu * (cos/sin sum at theta) for
        every point, including x <= 0; this avoids the cancellation of the
        monomial form when the coefficients are large.
        """
        pts = np.asarray(pts, dtype=float)
        r = np.hypot(pts[:, 0], pts[:, 1])
        th = np.arctan2(pts[:, 1], pts[:, 0])
        return (r / self.gref) ** self.nu * self._trig(th)

    def at_inf(self, sign=1):
        """Limit of W^nu p_nu at sign*infinity."""
        th = np.pi / 2 if sign > 0 else -np.pi / 2
        return float((self.weight.rho / self.gref) ** self.nu
                     * self._trig(np.array(th)))

    def monomial_coeffs(self):
        """Coefficients a_k with p_nu(t) = sum_k a_k t^k (stable conversion).

        W^nu p_nu = (g/gref)^nu * trig with g = W sqrt(1+t^2), and
        cos(m th)(1+t^2)^{m/2} = Re (1+it)^m, sin -> Im, so p_nu(t) is
        gref^-nu H(1, t) for the homogeneous
        H = sum_m (x^2+y^2)^{(nu-m)/2} P_m with the harmonic parts
        P_m = c_m Re(x+iy)^m + s_m Im(x+iy)^m, summed by one Horner pass
        S <- (x^2+y^2) S + P_m over m = nu mod 2, ..., nu.
        """
        if self._mono is None:
            cos_m, sin_m = _harmonics(self.nu)
            k = np.arange(self.nu + 1)
            # C(m, k) i^k: real for even k, imaginary for odd k
            binom = np.frompyfunc(math.comb, 2, 1)(np.array(cos_m)[:, None], k)
            sin_coef = np.concatenate([np.zeros(len(cos_m) - len(sin_m)),
                                       self.sin_coef])
            coef = np.where(k % 2 == 0, np.asarray(self.cos_coef)[:, None],
                            sin_coef[:, None])
            parts = binom.astype(float) * (-1.0) ** (k // 2) * coef
            self._mono = (_lift_graded(parts, np.array([1.0, 0.0, 1.0]),
                                       start=self.nu % 2)
                          / self.gref ** self.nu)
        return self._mono


def _grid(m):
    """theta-uniform grid; index 0 is the infinity point, rest finite t."""
    theta = 2 * np.pi * np.arange(m) / m
    t = np.empty(m)
    t[0] = np.nan
    t[1:] = -1.0 / np.tan(theta[1:] / 2)
    thc = (theta - np.pi) / 2  # arctan(t) for the finite nodes
    return t, thc


def _basis_matrix(w, nu, gref, t, thc):
    cos_m, sin_m = _harmonics(nu)
    mfin = np.isfinite(t)
    gt = np.empty_like(t)
    gt[mfin] = w.W(t[mfin]) * np.hypot(1.0, t[mfin]) / gref
    gt[~mfin] = w.rho / gref
    mod = gt ** nu
    cols = []
    for m in cos_m:
        cols.append(mod * np.cos(m * thc))
    for m in sin_m:
        cols.append(mod * np.sin(m * thc))
    return np.stack(cols, axis=1)


def _sample_f(f, t):
    vals = np.empty_like(t)
    fin = np.isfinite(t)
    vals[fin] = f(t[fin])
    vals[~fin] = f.at_neg_inf  # theta -> 0+ corresponds to t -> -infinity
    return vals


def _solve_lp(Psi, fvals):
    m, k = Psi.shape
    # Orthonormalize the columns first: for weights with rho far below
    # max g the raw columns span many orders of magnitude and the LP
    # solver silently stalls at a false optimum.  The LP is solved in the
    # Q basis and the solution mapped back through R.
    Q, R = np.linalg.qr(Psi)
    # variables: coefficients (k) + error bound e; minimize e
    A = np.zeros((2 * m, k + 1))
    A[:m, :k] = Q
    A[m:, :k] = -Q
    A[:, k] = -1.0
    b = np.concatenate([fvals, -fvals])
    cvec = np.zeros(k + 1)
    cvec[k] = 1.0
    bounds = [(None, None)] * k + [(0, None)]
    res = linprog(cvec, A_ub=A, b_ub=b, bounds=bounds, method="highs")
    if not res.success:
        raise NoConvergenceError(f"minimax LP failed: {res.message}")
    coef = solve_triangular(R, res.x[:k])
    return coef, res.x[k]


def _weighted_lp(branches, w, degrees, grid=None):
    """Discrete weighted minimax over stacked trig blocks (internal).

    ``degrees`` gives one basis block per degree nu.  Branch k of
    ``branches`` is the target at the boundary points (-1)^k p(t), where the
    block of degree nu enters with sign (-1)^(k nu).  One branch with one
    block is the single-parity problem; two branches with an even and an odd
    block are the pair problem, whose sup error over the whole boundary is
    minimized jointly so that the parities' residuals share extrema instead
    of adding up.  Returns one WeightedApproximant per block.
    """
    if max(degrees) > _DEGREE_CAP:
        raise DegreeCapError(f"degree {max(degrees)} beyond cap {_DEGREE_CAP}")
    if grid is None:
        grid = 4 * (max(degrees) + 1) + 1
    kinks = np.asarray(w.kinks, dtype=float)

    def nodes(m):
        # the error of a fit peaks at the kinks of W, which no uniform grid
        # need hit: they join both grids
        t, thc = _grid(m)
        return (np.concatenate([t, kinks]),
                np.concatenate([thc, np.arctan(kinks)]))

    tv, thv = nodes(_VERIFY_GRID)
    fin = np.isfinite(tv)
    gref = max(float(np.max(w.W(tv[fin]) * np.hypot(1.0, tv[fin]))), w.rho)
    signs = np.array([np.concatenate([np.full(nu + 1, (-1.0) ** (k * nu))
                                      for nu in degrees])
                      for k in range(len(branches))])

    def system(t, thc):
        basis = np.hstack([_basis_matrix(w, nu, gref, t, thc)
                           for nu in degrees])
        return basis, np.stack([_sample_f(f, t) for f in branches])

    Bv, fv = system(tv, thv)
    floor = 1e-10 * float(np.max(np.abs(fv)))
    B, fs = system(*nodes(grid))
    A = np.vstack([B * s for s in signs])
    b = fs.ravel()
    cap = 2 * A.shape[1]
    lp_solves, last, best = 0, -np.inf, (np.inf, None)
    while True:
        coef, err = _solve_lp(A, b)
        lp_solves += 1
        resid = np.abs((signs * coef) @ Bv.T - fv)
        dense_err = float(np.max(resid))
        best = min(best, (float(max(err, dense_err)), coef),
                   key=lambda it: it[0])
        converged = bool(dense_err <= max(1.01 * err, floor))
        # added rows can only raise the LP optimum: a flat one has stalled
        # at the solver's tolerance
        if converged or lp_solves > _REFINE_ROUNDS or err <= last:
            break
        last = err
        # multi-point exchange: every local maximum above the LP error of
        # each branch's residual on the periodic grid (the kinks are solved)
        r = resid[:, :_VERIFY_GRID]
        branch, node = np.nonzero((r > np.roll(r, 1, axis=1))
                                  & (r >= np.roll(r, -1, axis=1)) & (r > err))
        keep = np.argsort(r[branch, node])[-cap:]
        branch, node = branch[keep], node[keep]
        A = np.vstack([A, Bv[node] * signs[branch]])
        b = np.concatenate([b, fv[branch, node]])

    sup, coef = best
    out, lo = [], 0
    for nu in degrees:
        nc = len(_harmonics(nu)[0])
        out.append(WeightedApproximant(
            nu=nu, weight=w, gref=gref, cos_coef=coef[lo:lo + nc],
            sin_coef=coef[lo + nc:lo + nu + 1], sup_error=sup,
            lp_solves=lp_solves, lp_rows=2 * len(A), converged=converged))
        lo += nu + 1
    return out


def weighted_minimax(f, w, n, grid=None):
    """Best discrete-minimax W^n p_n (even n) for f on the compactified line.

    ``grid`` is the number of solve-grid nodes; None scales it with n.
    """
    if n % 2 != 0 or n < 0:
        raise ValueError("weighted_minimax needs even nonnegative n")
    if not isinstance(f, CompactifiedFunction):
        f = CompactifiedFunction.from_callable(f)
    if not f.equal_limits:
        raise UnequalLimitsError(
            "function has different limits at +infinity and -infinity")
    return _weighted_lp((f,), w, (n,), grid=grid)[0]


def homog_from_weighted(wa, body):
    """Homogeneous h_n(x,y) = sum_k a_k x^{n-k} y^k matching W^n p_n.

    On the slope-parametrized boundary, h_n(x(t), y(t)) = W^n(t) p_n(t),
    including the limit a_n rho^n at t = infinity.
    """
    if wa.nu % 2 != 0:
        raise ValueError("homog_from_weighted needs an even-degree approximant")
    return _homog_from_monomial(wa.monomial_coeffs(), wa.nu)


def _homog_from_monomial(a, n):
    return HomogeneousPoly.from_vector(a[:n + 1])
