"""End-to-end approximation of f on Bd(K) by pairs of homogeneous polynomials.

Two routes produce an (even, odd) homogeneous pair whose sum approximates a
continuous f on the boundary of a centrally symmetric planar body:

* planar-potential route: even/odd split of f, slope-line transform, and a
  weighted polynomial minimax for each parity;
* geometric route (smooth bodies): a least-squares Weierstrass stage followed
  by multiplication of each graded part with an approximation of unity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EscalationError
from .polys import HomogeneousPoly
from .report import ApproxReport
from .unity import UnityParams, approximate_unities
from .weighted_approx import (CompactifiedFunction, _weighted_lp,
                              _homog_from_monomial)

_VALIDATION_SEED = 0xB17E


@dataclass
class HomPair:
    """Pair (h_even, h_odd) of homogeneous polynomials with an error report."""

    h_even: HomogeneousPoly
    h_odd: HomogeneousPoly
    route: str
    report: ApproxReport
    _eval: object = None

    def __call__(self, x):
        if self._eval is not None:
            return self._eval(np.asarray(x, dtype=float))
        return self.h_even(x) + self.h_odd(x)

    @property
    def degrees(self):
        return self.h_even.degree, self.h_odd.degree


def _pair_report(body, f, h_even, h_odd, samples=2000, pair_eval=None):
    if pair_eval is None:
        pair_eval = lambda p: h_even(p) + h_odd(p)
    pts = body.boundary_points(samples)
    if body.kind == "polygon":
        # a pair's error on a polygon peaks at its vertices, which the
        # midpoint angles never hit
        pts = np.vstack([pts, body.params["vertices"]])
    resid = np.abs(f(pts) - pair_eval(pts))
    fresh = body.boundary_points(samples // 2, seed=_VALIDATION_SEED)
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

    w = body.weight()
    rho = w.rho
    top = np.array([[0.0, rho]])

    def on_plus(t):
        return f(body.slope_points(np.asarray(t, dtype=float)))

    def on_minus(t):
        return f(-body.slope_points(np.asarray(t, dtype=float)))

    # the theta -> 0+ grid node is the t -> -infinity limit: (0, -rho) on
    # the canonical branch and (0, rho) on the mirrored one
    Fp = CompactifiedFunction(on_plus, float(f(top)[0]), float(f(-top)[0]))
    Fm = CompactifiedFunction(on_minus, float(f(-top)[0]), float(f(top)[0]))
    wa_e, wa_o = _weighted_lp((Fp, Fm), w, (n_even, n_odd))
    h_even = _homog_from_monomial(wa_e.monomial_coeffs(), n_even)
    h_odd = _homog_from_monomial(wa_o.monomial_coeffs(), n_odd)

    def pair_eval(pts):
        return wa_e.eval_points(pts) + wa_o.eval_points(pts)

    report = _pair_report(body, f, h_even, h_odd, pair_eval=pair_eval)
    report.extras["joint_sup_error"] = wa_e.sup_error
    report.extras["lp_solves"] = wa_e.lp_solves
    report.extras["lp_rows"] = wa_e.lp_rows
    report.extras["refine_converged"] = wa_e.converged
    return HomPair(h_even=h_even, h_odd=h_odd, route="planar-potential",
                   report=report, _eval=pair_eval)


def _weierstrass_fit(body, f, m, tik=1e-10):
    """Penalized least-squares polynomial of total degree m on the boundary.

    Returns its graded parts, row d holding the degree-d part's coefficient
    vector (index k = power of y, zero past d), and the sup residual.
    """
    samples = 16 * (m + 1) ** 2
    pts = body.boundary_points(samples)
    exps = [(a, b) for a in range(m + 1) for b in range(m + 1 - a)]
    V = np.stack([pts[:, 0] ** a * pts[:, 1] ** b for a, b in exps], axis=1)
    fv = f(pts)
    A = V.T @ V + tik * np.eye(V.shape[1])
    coef = np.linalg.solve(A, V.T @ fv)
    resid = float(np.max(np.abs(V @ coef - fv)))
    parts = np.zeros((m + 1, m + 1))
    for (a, b), c in zip(exps, coef):
        parts[a + b, b] = c
    return parts, resid


def approximate_theorem1(body, f, n, m=8, delta=1e-3):
    """Geometric route: Weierstrass stage + unity multipliers per graded part."""
    m_cap = min(24, 2 * (n - 4))
    if m > m_cap:
        raise ValueError(f"initial Weierstrass degree {m} exceeds cap {m_cap}")
    parts, resid = _weierstrass_fit(body, f, m)
    steps = 0
    while resid > delta and m + 2 <= m_cap:
        m += 2
        steps += 1
        parts, resid = _weierstrass_fit(body, f, m)
    if resid > delta:
        raise EscalationError(
            f"Weierstrass stage stalled at degree {m} with error {resid:.3e}",
            achieved=resid)

    # part d takes the multiplier of degree 2(n - d//2); those sharing a
    # mesh are built together
    meshes = {}
    for n_u in sorted({n - deg // 2 for deg in range(len(parts))},
                      reverse=True):
        params = UnityParams(n=n_u)
        meshes.setdefault(params.resolve(), []).append(params)
    pts = body.boundary_points(1000)
    unity = {}
    for group in meshes.values():
        for params, u in zip(group, approximate_unities(body, group)):
            unity[params.n] = (u, float(np.max(np.abs(1.0 - u(pts)))))

    h_even = HomogeneousPoly.zero(2, 2 * n)
    h_odd = HomogeneousPoly.zero(2, 2 * n + 1)
    bound = 0.0
    for deg, part in enumerate(parts):
        hj = HomogeneousPoly.from_vector(part[:deg + 1])
        u, uerr = unity[n - deg // 2]
        lifted = hj.multiply(u)
        if deg % 2 == 0:
            h_even = h_even.add(lifted)
        else:
            h_odd = h_odd.add(lifted)
        bound += float(np.max(np.abs(hj(pts)))) * uerr

    report = _pair_report(body, f, h_even, h_odd)
    report.extras["weierstrass_degree"] = m
    report.extras["weierstrass_sup_error"] = resid
    report.extras["unity_triangle_bound"] = bound
    report.extras["weierstrass_steps"] = steps
    report.extras["unity_cache_hits"] = len(parts) - len(unity)
    report.extras["unity_meshes"] = len(meshes)
    return HomPair(h_even=h_even, h_odd=h_odd, route="geometric",
                   report=report)
