"""Best uniform approximation by weighted polynomials W^n p_n on the line.

Through the direction angle th = arctan(t), with g(t) = W(t) sqrt(1+t^2),
c = cos th and s = sin th, the family {W^n p_n : deg p_n <= n} on the
compactified line is g^n times the degree-n forms in (c, s): two families
pref(c, s) p(u), u = c^2, with pref = 1 and c s for even n, c and s for odd
n.  One three-term recurrence per family, measured once per weight and
degree by discrete Stieltjes on the fixed verification grid, gives columns
phi_j = (g/gref)^n pref p_j(u) of unit RMS, orthonormal there, and runs on
phi_j so that nothing overflows.  It serves the LP columns and every
evaluation (with the modulus (r/gref)^n at a planar point) and, homogenized
in x^2 and x^2 + y^2, the monomial coefficients through one Horner pass.

One solver handles one parity or an even/odd pair solved jointly, by a
multi-point exchange.  The LP starts on 4 (n + 1) + 1 nodes for the largest
degree n; each fit is checked on a fixed grid of 40010 nodes, and the kinks of
W (a polygon's vertex slopes) join both.  While the verified error exceeds the
LP error by more than 1%, every local maximum above it (beyond rounding) of
the residual on that grid, read once around the boundary across the branches,
joins the LP, at most twice the basis size of them (the largest) per round,
which bounds the growth at the noise floor; at most four rounds.  The stop
test has an absolute floor of 1e-10 max|f|.  Added nodes can only raise the LP
optimum, so a round whose LP error does not rise has stalled and stops
unconverged.  The iterate returned has the least sup error, the larger of its
LP and verified errors.

The LP of one fit lives on one HiGHS instance (`_ExchangeLP`).  The QR of the
start block is taken once and every later row is mapped through the same
R^-1, so a round only appends rows and the dual simplex warm-starts from the
last basis.  The variables are the correction to the start block's
least-squares fit, scaled by its residual, so a near-exact fit is solved to
the solver's tolerance (~1e-7) relative to that residual, not in absolute
terms.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import solve_triangular
# perfbench wraps this name until it reads package counters (ROADMAP item 1)
from scipy.optimize import linprog  # noqa: F401
from scipy.optimize._highspy._core import HighsModelStatus, _Highs

from .errors import DegreeCapError, UnequalLimitsError, NoConvergenceError
from .polys import HomogeneousPoly, _lift_graded, _times_form

_DEGREE_CAP = 128
_VERIFY_GRID = 40010
_REFINE_ROUNDS = 4
_LIMIT_PROBES = (1e6, 1e8)
_CHUNK = 4096
_R2 = np.array([1.0, 0.0, 1.0])     # x^2 + y^2
# prefactor forms of the two families of parity nu % 2 (index = power of y)
_PREFS = (([1.0], [0.0, 1.0, 0.0]), ([1.0, 0.0], [0.0, 1.0]))


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
    def from_callable(cls, fn):
        # Richardson step assuming f ~ L + c/t at the probe points; exact
        # for first-order rational decay, so limits like t/(1+t^2) -> 0
        # come out clean instead of O(1/probe).
        ratio = _LIMIT_PROBES[1] / _LIMIT_PROBES[0]
        limits = []
        for sign in (1.0, -1.0):
            v = [float(fn(np.array(sign * p))) for p in _LIMIT_PROBES]
            if not all(np.isfinite(v)):
                raise ValueError("function has no finite limit at infinity")
            if abs(v[1] - v[0]) > 1e-5 * max(1.0, abs(v[1])):
                raise ValueError("function does not settle to a limit at infinity")
            limits.append(v[1] - (v[0] - v[1]) / (ratio - 1.0))
        return cls(fn=fn, at_pos_inf=limits[0], at_neg_inf=limits[1])


def _columns(mod, c, s, nu, rec=None):
    """Columns phi_j = mod pref(c, s) p_j(u) of both families of parity nu at
    nodes of direction (c, s) and modulus mod (nu-th power taken), u = c^2:
    beta_j p_j = (u - alpha_j) p_(j-1) - beta_(j-1) p_(j-2), p_0 = 1/beta_0,
    run on phi_j.  ``rec`` holds (alpha, beta) per family; without it they
    are measured here by discrete Stieltjes, each column of unit RMS and
    orthogonal to its family.  The columns take the inputs' precision (long
    double inputs give long double columns).  Returns the columns and the
    recurrence."""
    u = c * c
    cols = np.empty(np.shape(u) + (nu + 1,), np.result_type(mod, u),
                    order="F")
    recs, k = [], 0
    for f, pref in enumerate(_PREFS[nu % 2]):
        size = (nu - len(pref) + 1) // 2 + 1
        alpha, beta = (np.zeros(size), np.zeros(size)) if rec is None else rec[f]
        phi, prev = mod * sum(v * c ** (len(pref) - 1 - i) * s ** i
                              for i, v in enumerate(pref)), 0.0
        for j in range(size):
            if j:
                if rec is None:
                    alpha[j] = np.mean(u * cols[..., k - 1] ** 2)
                phi = (u - alpha[j]) * cols[..., k - 1] - beta[j - 1] * prev
                prev = cols[..., k - 1]
            if rec is None:
                beta[j] = np.sqrt(np.mean(phi ** 2))
            cols[..., k] = phi / beta[j]
            k += 1
        recs.append((alpha, beta))
    return cols, recs


def _graded(coef, alpha, beta):
    """Parts coef_j P_j of one family, P_j = r^(2j) p_j(x^2/r^2) (r^2 = x^2 +
    y^2) by beta_j P_j = (x^2 - alpha_j r^2) P_(j-1) - beta_(j-1) r^4 P_(j-2)
    on coefficient vectors; P_0 comes padded to the length of the last."""
    cur, lag = np.array([1.0 / beta[0]]), np.zeros(1)     # P_0, r^2 P_-1
    yield coef[0] * np.pad(cur, (0, 2 * len(beta) - 2))
    for j in range(1, len(beta)):
        cur, lag = ((_times_form(cur, np.array([1 - alpha[j], 0.0, -alpha[j]]))
                     - beta[j - 1] * _times_form(lag, _R2)) / beta[j],
                    _times_form(cur, _R2))
        yield coef[j] * cur


@dataclass
class WeightedApproximant:
    """W^nu p_nu as coefficients ``coef`` of the weight-orthonormal basis
    whose recurrence ``rec`` (see `_columns`) is measured on the fixed grid."""

    nu: int
    weight: object
    gref: float
    coef: np.ndarray
    rec: list
    sup_error: float
    lp_solves: int
    lp_rows: int
    converged: bool
    _mono: np.ndarray = field(default=None, repr=False)

    def _value(self, mod, c, s):
        """The basis sum at directions (c, s) with modulus mod, by chunks."""
        args = [np.ravel(v) for v in (mod ** self.nu, c, s)]
        out = np.empty(len(args[1]))
        for i in range(0, len(out), _CHUNK):
            out[i:i + _CHUNK] = _columns(*(v[i:i + _CHUNK] for v in args),
                                         self.nu, self.rec)[0] @ self.coef
        return out.reshape(np.shape(c))[()]

    def __call__(self, t):
        """Value of W^nu p_nu at finite t (vectorized)."""
        t = np.asarray(t, dtype=float)
        h = np.hypot(1.0, t)
        return self._value(self.weight.W(t) * h / self.gref, 1.0 / h, t / h)

    def eval_points(self, pts):
        """Value of the matching homogeneous polynomial at planar points:
        (r/gref)^nu times the basis sum at each point's direction, which
        avoids the cancellation of the monomial form."""
        pts = np.asarray(pts, dtype=float)
        r = np.hypot(pts[:, 0], pts[:, 1])
        c = np.divide(pts[:, 0], r, out=np.ones_like(r), where=r > 0)
        s = np.divide(pts[:, 1], r, out=np.zeros_like(r), where=r > 0)
        return self._value(r / self.gref, c, s)

    def monomial_coeffs(self):
        """Coefficients a_k with p_nu(t) = sum_k a_k t^k, i.e. h(1, t) for
        h = gref^-nu sum over the families of pref(x, y) times the Horner sum
        sum_j (x^2+y^2)^(J-j) coef_j P_j of `_graded` (j = 0, ..., J).
        """
        if self._mono is None:
            mono, lo = np.zeros(self.nu + 1), 0
            for pref, (alpha, beta) in zip(_PREFS[self.nu % 2], self.rec):
                if len(beta):
                    part = _lift_graded(_graded(self.coef[lo:], alpha, beta), _R2)
                    mono += _times_form(part, np.array(pref))
                lo += len(beta)
            self._mono = mono / self.gref ** self.nu
        return self._mono


def _grid(m):
    """theta-uniform grid; index 0 is the infinity point, rest finite t."""
    theta = 2 * np.pi * np.arange(m) / m
    t = np.empty(m)
    t[0] = np.nan
    t[1:] = -1.0 / np.tan(theta[1:] / 2)
    thc = (theta - np.pi) / 2  # arctan(t) for the finite nodes
    return t, thc


def _basis_matrix(w, nu, gref, t, thc, rec=None):
    """`_columns` of degree nu at slopes t (nan: infinity), angles thc."""
    mfin = np.isfinite(t)
    gt = np.empty_like(t)
    gt[mfin] = w.W(t[mfin]) * np.hypot(1.0, t[mfin]) / gref
    gt[~mfin] = w.rho / gref
    return _columns(gt ** nu, np.cos(thc), np.sin(thc), nu, rec)


def _sample_f(f, t):
    vals = np.empty_like(t)
    fin = np.isfinite(t)
    vals[fin] = f(t[fin])
    vals[~fin] = f.at_neg_inf  # theta -> 0+ corresponds to t -> -infinity
    return vals


class _ExchangeLP:
    """The exchange's minimax LP, min e over |A c - b| <= e, on one HiGHS
    instance per fit.  The start block's QR A = Q R fixes the variables
    z = R c (well conditioned: the columns are orthonormal on the
    verification grid), and every row added later is mapped through the same
    R^-1, so the columns never change and each round warm-starts from the
    last basis.  The LP is posed on the correction y to the start block's
    least-squares fit y0 = Q^T b, z = y0 + s y, scaled by its residual
    s = max|b - Q y0|: a near-exact fit then ends at the solver's tolerance
    relative to s, not at ~1e-7 absolute."""

    def __init__(self, A, b):
        Q, self.R = np.linalg.qr(A)
        self.y0 = Q.T @ b
        self.s = float(np.max(np.abs(b - Q @ self.y0))) or 1.0
        k = A.shape[1]
        self.highs = _Highs()
        self.highs.setOptionValue("output_flag", False)
        # the rows come scaled (unit RMS columns, targets of unit size) and
        # dense, so HiGHS's scaling and presolve find nothing to do; with
        # its scaling the ellipse (2, 1) exp(x) cos(y) pair at n = 96 took
        # 4795 simplex steps, not 785
        self.highs.setOptionValue("simplex_scale_strategy", 0)
        self.highs.setOptionValue("presolve", "off")
        # variables y (free) and e >= 0; minimize e
        cost, lower = np.zeros(k + 1), np.full(k + 1, -np.inf)
        cost[k], lower[k] = 1.0, 0.0
        self.highs.addCols(k + 1, cost, lower, np.full(k + 1, np.inf), 0,
                           np.zeros(0, np.int32), np.zeros(0, np.int32),
                           np.zeros(0))
        self._append(Q, b)

    def add(self, A, b):
        """Append the rows |A c - b| <= e to the LP."""
        self._append(solve_triangular(self.R, A.T, trans="T").T, b)

    def _append(self, Qa, b):
        # q y - e <= r and q y + e >= r for each row, r its scaled residual
        m, k = Qa.shape
        r = (b - Qa @ self.y0) / self.s
        vals = np.empty((2, m, k + 1))
        vals[:, :, :k] = Qa
        vals[0, :, k], vals[1, :, k] = -1.0, 1.0
        inf = np.full(m, np.inf)
        self.highs.addRows(2 * m, np.concatenate([-inf, r]),
                           np.concatenate([r, inf]), vals.size,
                           np.arange(0, vals.size, k + 1, dtype=np.int32),
                           np.tile(np.arange(k + 1, dtype=np.int32), 2 * m),
                           vals.ravel())

    def solve(self):
        """The coefficients c and the error e of the LP's optimum."""
        self.highs.run()
        status = self.highs.getModelStatus()
        if status != HighsModelStatus.kOptimal:
            raise NoConvergenceError(
                f"minimax LP failed: {self.highs.modelStatusToString(status)}")
        x = np.asarray(self.highs.getSolution().col_value)
        return (solve_triangular(self.R, self.y0 + self.s * x[:-1]),
                self.s * x[-1])


def _peaks(resid, err, cap):
    """(branch, node) of the exchange's new LP nodes: the cap largest local
    maxima above the LP error err (one within rounding of it is an earlier
    round's node, active in the LP) of the residual on the verification grid
    (the kinks past it are solved).  Branch 0 covers the directions
    [-pi/2, pi/2) and branch 1 [pi/2, 3pi/2): the rows form one cycle."""
    r = resid[:, :_VERIFY_GRID].ravel()
    peak = np.flatnonzero((r > np.roll(r, 1)) & (r >= np.roll(r, -1))
                          & (r > err * (1 + 1e-9)))
    return divmod(peak[np.argsort(r[peak])[-cap:]], _VERIFY_GRID)


def _weighted_lp(branches, w, degrees):
    """Discrete weighted minimax over stacked basis blocks (internal).

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

    def system(t, thc, recs):
        cols, recs = zip(*[_basis_matrix(w, nu, gref, t, thc, rec)
                           for nu, rec in zip(degrees, recs)])
        return np.hstack(cols), recs, np.stack([_sample_f(f, t) for f in branches])

    # each degree's recurrence is measured on the verification nodes
    Bv, recs, fv = system(tv, thv, [None] * len(degrees))
    floor = 1e-10 * float(np.max(np.abs(fv)))
    B, _, fs = system(*nodes(4 * (max(degrees) + 1) + 1), recs)
    lp = _ExchangeLP(np.vstack([B * s for s in signs]), fs.ravel())
    cap = 2 * B.shape[1]
    lp_solves, last, best = 0, -np.inf, (np.inf, None)
    while True:
        coef, err = lp.solve()
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
        branch, node = _peaks(resid, err, cap)
        lp.add(Bv[node] * signs[branch], fv[branch, node])

    sup, coef = best
    blocks = np.split(coef, np.cumsum([nu + 1 for nu in degrees])[:-1])
    return [WeightedApproximant(nu=nu, weight=w, gref=gref, coef=c, rec=rec,
                                sup_error=sup, lp_solves=lp_solves,
                                lp_rows=lp.highs.getNumRow(),
                                converged=converged)
            for nu, rec, c in zip(degrees, recs, blocks)]


def weighted_minimax(f, w, n):
    """Best discrete-minimax W^n p_n (even n) for f on the compactified line."""
    if n % 2 != 0 or n < 0:
        raise ValueError("weighted_minimax needs even nonnegative n")
    if not isinstance(f, CompactifiedFunction):
        f = CompactifiedFunction.from_callable(f)
    if not f.equal_limits:
        raise UnequalLimitsError(
            "function has different limits at +infinity and -infinity")
    return _weighted_lp((f,), w, (n,))[0]


def _homog_from_monomial(a, n):
    return HomogeneousPoly.from_vector(a[:n + 1])
