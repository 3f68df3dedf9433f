"""Best uniform approximation by weighted polynomials W^n p_n on the line.

The core reads a boundary by direction angle phi alone: a sampler gives the
distance g(phi) to the boundary and the target there.  On the line t = tan phi,
which only `weighted_minimax` knows, g = W(t) sqrt(1+t^2), and the family
{W^n p_n : deg p_n <= n} is g^n times the degree-n forms in (c, s) =
(cos phi, sin phi): two families pref(c, s) p(u), u = c^2, with pref = 1 and
c s for even n, c and s for odd n.  One three-term recurrence per family,
measured once per weight and degree by discrete Stieltjes on the fixed
verification grid, gives columns phi_j = (g/gref)^n pref p_j(u) of unit RMS,
orthonormal there, and runs on phi_j so that nothing overflows.  It serves
the LP columns and every evaluation (with the modulus (r/gref)^n at a planar
point) and, homogenized in x^2 and x^2 + y^2, the monomial coefficients
through one Horner pass.

One solver handles one parity on one half turn of directions or an even/odd
pair jointly on two, by a multi-point exchange.  The boundary is read once per
node set, on the first half turn: the point at phi + pi of a 0-symmetric body
is minus the one at phi, so the sampler gives the further half turns' targets
there, and the columns enter them with the sign (-1)^n of a form of degree n.
The LP starts on 4 (n + 1) + 1 angles for the largest degree n; each fit is
checked on a fixed grid of 40010 angles per half turn, and the kinks of W (a
polygon's vertex directions) join both.  While the verified error exceeds the
LP error by more than 1%, every local maximum above it (beyond rounding) of
the residual on that grid, read once around the boundary across the half
turns, joins the LP, at most twice the basis size of them (the largest) per
round, which bounds the growth at the noise floor; at most four rounds.  The
stop test has an absolute floor of 1e-10 max|f|.  Added nodes can only raise
the LP optimum, so a round whose LP error does not rise has stalled and stops
unconverged.  The iterate returned has the least sup error, the larger of its
LP and verified errors.

The LP of one fit lives on one HiGHS instance (`_ExchangeLP`), posed as the
dual of min e over |A c - b| <= e: the primal's two rows per node are the
dual's columns, and its basis has k + 1 rows for k coefficients however many
nodes join.  The QR of the start block is taken once and every later node is
mapped through the same R^-1, so a round only appends columns; the last basis
stays feasible and the next solve warm-starts from it.  The dual simplex is
pinned, as HiGHS's own choice of strategy was about 2.5 times slower.  The
primal's variables are the correction to the start block's least-squares
fit, scaled by its residual, so a near-exact fit is solved to the solver's
tolerance (~1e-7) relative to that residual, not in absolute terms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_triangular
# perfbench wraps this name until it reads package counters (ROADMAP item 6)
from scipy.optimize import linprog  # noqa: F401
from scipy.optimize._highspy._core import HighsModelStatus, _Highs

from .errors import DegreeCapError, UnequalLimitsError, NoConvergenceError
from .polys import _lift_graded, _times_form

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
    lp_iterations: int
    converged: bool

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
        mono, lo = np.zeros(self.nu + 1), 0
        for pref, (alpha, beta) in zip(_PREFS[self.nu % 2], self.rec):
            if len(beta):
                part = _lift_graded(_graded(self.coef[lo:], alpha, beta), _R2)
                mono += _times_form(part, np.array(pref))
            lo += len(beta)
        return mono / self.gref ** self.nu


def _basis_matrix(radius, phi, nu, gref, rec=None):
    """`_columns` of degree nu at direction angles phi, the boundary at
    distance radius."""
    return _columns((radius / gref) ** nu, np.cos(phi), np.sin(phi), nu, rec)


class _ExchangeLP:
    """The exchange's minimax LP on one HiGHS instance per fit, posed in the
    dual form of min e over |A c - b| <= e.  The start block's QR A = Q R
    fixes the variables z = R c (well conditioned: the columns are
    orthonormal on the verification grid), and every node added later is
    mapped through the same R^-1.  The primal is posed on the correction y to
    the start block's least-squares fit y0 = Q^T b, z = y0 + s y, scaled by
    its residual s = max|b - Q y0|, over |r_i - q_i y| <= e with r the scaled
    residuals: a near-exact fit then ends at the solver's tolerance relative
    to s, not at ~1e-7 absolute.  Its dual is max r (u - v) subject to
    Q^T (u - v) = 0 and sum(u + v) <= 1, u, v >= 0: k + 1 rows whatever the
    node count, and two columns per node.  A round appends columns, which
    leaves the last basis feasible, so the solve warm-starts from it.  y is
    minus the duals of the k equality rows and e minus the optimum."""

    def __init__(self, A, b):
        Q, self.R = np.linalg.qr(A)
        self.y0 = Q.T @ b
        self.s = float(np.max(np.abs(b - Q @ self.y0))) or 1.0
        k = A.shape[1]
        self.iterations = 0
        self.highs = _Highs()
        self.highs.setOptionValue("output_flag", False)
        # the columns come scaled (unit RMS basis, targets of unit size) and
        # dense, so HiGHS's scaling and presolve find nothing to do; with
        # its scaling the ellipse (2, 1) exp(x) cos(y) pair at n = 96 took
        # 1061 simplex iterations, not 301
        self.highs.setOptionValue("simplex_scale_strategy", 0)
        self.highs.setOptionValue("presolve", "off")
        # HiGHS's own choice of strategy (the primal simplex here) took 941
        # iterations and 0.47 s on the ellipse (4, 1) exp(x) cos(y) pair at
        # n = 96, the dual simplex 248 and 0.19 s
        self.highs.setOptionValue("simplex_strategy", 1)
        # rows Q^T (u - v) = 0 and sum(u + v) <= 1
        lower, upper = np.zeros(k + 1), np.zeros(k + 1)
        lower[k], upper[k] = -np.inf, 1.0
        self.highs.addRows(k + 1, lower, upper, 0, np.zeros(0, np.int32),
                           np.zeros(0, np.int32), np.zeros(0))
        self._append(Q, b)

    def add(self, A, b):
        """Append the nodes |A c - b| <= e to the LP."""
        self._append(solve_triangular(self.R, A.T, trans="T").T, b)

    def _append(self, Qa, b):
        # columns u_i = (q_i, 1) and v_i = (-q_i, 1), costs -r_i and r_i,
        # r the scaled residual of each node
        m, k = Qa.shape
        r = (b - Qa @ self.y0) / self.s
        vals = np.empty((2, m, k + 1))
        vals[0, :, :k], vals[1, :, :k], vals[:, :, k] = Qa, -Qa, 1.0
        self.highs.addCols(2 * m, np.concatenate([-r, r]), np.zeros(2 * m),
                           np.full(2 * m, np.inf), vals.size,
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
        info = self.highs.getInfo()
        self.iterations += info.simplex_iteration_count
        y = -np.asarray(self.highs.getSolution().row_dual)[:-1]
        return (solve_triangular(self.R, self.y0 + self.s * y),
                -self.s * info.objective_function_value)


def _peaks(resid, err, cap):
    """(half turn, node) of the exchange's new LP nodes: the cap largest
    local maxima above the LP error err (one within rounding of it is an
    earlier round's node, active in the LP) of the residual on the
    verification grid (the kinks past it are solved).  Half turn k covers
    the directions [(2k - 1) pi/2, (2k + 1) pi/2): the rows form one cycle."""
    r = resid[:, :_VERIFY_GRID].ravel()
    peak = np.flatnonzero((r > np.roll(r, 1)) & (r >= np.roll(r, -1))
                          & (r > err * (1 + 1e-9)))
    return divmod(peak[np.argsort(r[peak])[-cap:]], _VERIFY_GRID)


def _weighted_lp(sample, w, degrees):
    """Discrete weighted minimax over stacked basis blocks (internal).

    ``sample(phi)`` gives, at direction angles phi of the first half turn
    [-pi/2, pi/2), the boundary's distance from the origin and one row of
    targets per half turn k, read at the boundary points (-1)^k p(phi).
    ``degrees`` gives one basis block per degree nu, built on the first half
    turn alone: a form of degree nu obeys h(-x) = (-1)^nu h(x), so on half
    turn k the block enters with sign (-1)^(k nu).  One row with one block is
    the single-parity problem; two rows with an even and an odd block are the
    pair problem, whose sup error over the whole boundary is minimized
    jointly so that the parities' residuals share extrema instead of adding
    up.  The kinks of W join the angles as arctan(kink).  Returns one
    WeightedApproximant per block.
    """
    if max(degrees) > _DEGREE_CAP:
        raise DegreeCapError(f"degree {max(degrees)} beyond cap {_DEGREE_CAP}")
    kinks = np.arctan(w.kinks)

    def nodes(m):
        # m uniform angles of the first half turn; the error of a fit peaks
        # at the kinks of W, which no uniform grid need hit: they join both
        # grids
        phi = np.concatenate([(2 * np.pi * np.arange(m) / m - np.pi) / 2, kinks])
        return (phi, *sample(phi))

    def columns(phi, radius, recs):
        cols, recs = zip(*[_basis_matrix(radius, phi, nu, gref, rec)
                           for nu, rec in zip(degrees, recs)])
        return np.hstack(cols), recs

    phv, rv, fv = nodes(_VERIFY_GRID)
    gref = float(np.max(rv))
    # each degree's recurrence is measured on the verification nodes
    Bv, recs = columns(phv, rv, [None] * len(degrees))
    floor = 1e-10 * float(np.max(np.abs(fv)))
    phs, rs, fs = nodes(4 * (max(degrees) + 1) + 1)
    B, _ = columns(phs, rs, recs)
    # half turn k reads the block of degree nu with the parity (-1)^(k nu)
    signs = np.array([np.concatenate([np.full(nu + 1, (-1.0) ** (k * nu))
                                      for nu in degrees])
                      for k in range(len(fv))])
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
        turn, node = _peaks(resid, err, cap)
        lp.add(Bv[node] * signs[turn], fv[turn, node])

    sup, coef = best
    blocks = np.split(coef, np.cumsum([nu + 1 for nu in degrees])[:-1])
    return [WeightedApproximant(nu=nu, weight=w, gref=gref, coef=c, rec=rec,
                                sup_error=sup, lp_solves=lp_solves,
                                lp_rows=lp.highs.getNumCol(),
                                lp_iterations=lp.iterations,
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

    def sample(phi):
        # slope t = tan phi; phi = -pi/2 is t = -infinity, the point (0, -rho)
        end = phi == -np.pi / 2
        t = np.where(end, 0.0, np.tan(phi))
        return (np.where(end, w.rho, w.W(t) * np.hypot(1.0, t)),
                np.where(end, f.at_neg_inf, f(t))[None])

    return _weighted_lp(sample, w, (n,))[0]
