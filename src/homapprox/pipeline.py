"""End-to-end approximation of f on Bd(K) by pairs of homogeneous polynomials.

Two routes produce an (even, odd) homogeneous pair whose sum approximates a
continuous f on the boundary of a centrally symmetric planar body:

* planar-potential route: f sampled around the boundary by direction angle
  and one weighted minimax of the even and odd parts jointly over both half
  turns;
* geometric route (smooth bodies): a least-squares Weierstrass stage followed
  by multiplication of each graded part with an approximation of unity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EscalationError
from .polys import HomogeneousPoly, _planar_points
from .report import ApproxReport
from .unity import approximate_unities, mesh_size
from .weighted_approx import _weighted_lp

_VALIDATION_SEED = 0xB17E
_REPORT_SAMPLES = 2000     # midpoint boundary angles; half as many seeded
_WEIERSTRASS_TOL = 1e-3    # sup residual the Weierstrass stage must reach


@dataclass
class HomPair:
    """Pair (h_even, h_odd) of homogeneous polynomials with an error report.

    ``h_even(x) + h_odd(x)`` is the monomial form, accurate only while the
    coefficients stay moderate (1e18 on the square at n = 80).  ``pair(x)``
    evaluates through ``_eval``, its route's evaluator of rows of points: the
    monomial form on the geometric route, the stable evaluator of the
    weighted fits on the planar route.  ``pair(x)`` takes and returns what
    `HomogeneousPoly` does."""

    h_even: HomogeneousPoly
    h_odd: HomogeneousPoly
    route: str
    report: ApproxReport
    _eval: object

    def __call__(self, x):
        out = np.atleast_1d(self._eval(_planar_points(x)))
        return out if len(out) != 1 else float(out[0])

    @property
    def degrees(self):
        return self.h_even.degree, self.h_odd.degree


def _pair_report(body, f, h_even, h_odd, pair_eval):
    # a pair's error peaks at the corners, which the midpoint angles miss
    pts = np.vstack([body.boundary_points(_REPORT_SAMPLES), body.corners()])
    resid = np.abs(f(pts) - pair_eval(pts))
    fresh = body.boundary_points(_REPORT_SAMPLES // 2, seed=_VALIDATION_SEED)
    fresh_resid = np.abs(f(fresh) - pair_eval(fresh))
    return ApproxReport(
        degree=max(h_even.degree, h_odd.degree),
        sup_error=float(np.max(resid)),
        mean_error=float(np.mean(resid)),
        n_samples=len(pts),
        extras={"validation_sup_error": float(np.max(fresh_resid))},
    )


def approximate_theorem2(body, f, n):
    """Planar route: weighted-minimax approximation of each parity part."""
    if n < 5:
        raise ValueError("n must be at least 5")
    n_even = n if n % 2 == 0 else n - 1
    n_odd = n - 1 if n % 2 == 0 else n

    def sample(phi):
        # the second half turn's points are the first's reflections
        pts, radius = body.boundary_at(phi)
        return radius, np.stack([f(pts), f(-pts)])

    wa_e, wa_o = _weighted_lp(sample, body.weight(), (n_even, n_odd))
    h_even = HomogeneousPoly(wa_e.monomial_coeffs())
    h_odd = HomogeneousPoly(wa_o.monomial_coeffs())

    def pair_eval(pts):
        return wa_e.eval_points(pts) + wa_o.eval_points(pts)

    report = _pair_report(body, f, h_even, h_odd, pair_eval)
    report.extras["joint_sup_error"] = wa_e.sup_error
    report.extras["lp_solves"] = wa_e.lp_solves
    report.extras["lp_rows"] = wa_e.lp_rows
    report.extras["lp_iterations"] = wa_e.lp_iterations
    report.extras["refine_converged"] = wa_e.converged
    return HomPair(h_even=h_even, h_odd=h_odd, route="planar-potential",
                   report=report, _eval=pair_eval)


def _weierstrass_fit(body, f, m):
    """Penalized least-squares polynomial of total degree m on the boundary.

    Returns its graded parts, row d holding the degree-d part's coefficient
    vector (index k = power of y, zero past d), and the sup residual.
    """
    samples = 16 * (m + 1) ** 2
    pts = body.boundary_points(samples)
    a, b = np.array([(i, j) for i in range(m + 1) for j in range(m + 1 - i)]).T
    xp, yp = (np.stack([c ** k for k in range(m + 1)], axis=1) for c in pts.T)
    # C order: V.T @ V rounds by memory layout
    V = np.ascontiguousarray(xp[:, a] * yp[:, b])
    fv = f(pts)
    A = V.T @ V + 1e-10 * np.eye(V.shape[1])
    coef = np.linalg.solve(A, V.T @ fv)
    resid = float(np.max(np.abs(V @ coef - fv)))
    parts = np.zeros((m + 1, m + 1))
    parts[a + b, b] = coef
    return parts, resid


def approximate_theorem1(body, f, n):
    """Geometric route: Weierstrass stage + unity multipliers per graded part.

    The Weierstrass degree starts at 8 and steps by 2, to min(24, 2(n - 4)).
    """
    if n < 8:
        raise ValueError("n must be at least 8")
    m = 8
    parts, resid = _weierstrass_fit(body, f, m)
    while resid > _WEIERSTRASS_TOL and m + 2 <= min(24, 2 * (n - 4)):
        m += 2
        parts, resid = _weierstrass_fit(body, f, m)
    if resid > _WEIERSTRASS_TOL:
        raise EscalationError(
            f"Weierstrass stage stalled at degree {m} with error {resid:.3e}",
            achieved=resid)

    # part d takes the multiplier of degree 2(n - d//2)
    ns = sorted({n - deg // 2 for deg in range(len(parts))}, reverse=True)
    pts = body.boundary_points(1000)
    unity = {n_u: (u, float(np.max(np.abs(1.0 - u(pts)))))
             for n_u, u in zip(ns, approximate_unities(body, ns))}

    # every even part lifts to degree 2n, every odd one to 2n + 1
    sums = [np.zeros(2 * n + 1), np.zeros(2 * n + 2)]
    bound = 0.0
    for deg, part in enumerate(parts):
        hj = HomogeneousPoly(part[:deg + 1])
        u, uerr = unity[n - deg // 2]
        sums[deg % 2] += hj.multiply(u).vec
        bound += float(np.max(np.abs(hj(pts)))) * uerr
    h_even, h_odd = map(HomogeneousPoly, sums)

    def pair_eval(pts):
        return h_even(pts) + h_odd(pts)

    report = _pair_report(body, f, h_even, h_odd, pair_eval)
    report.extras["weierstrass_degree"] = m
    report.extras["weierstrass_sup_error"] = resid
    report.extras["unity_triangle_bound"] = bound
    report.extras["weierstrass_steps"] = (m - 8) // 2
    report.extras["unity_cache_hits"] = len(parts) - len(unity)
    report.extras["unity_meshes"] = len({mesh_size(n_u) for n_u in ns})
    return HomPair(h_even=h_even, h_odd=h_odd, route="geometric",
                   report=report, _eval=pair_eval)
