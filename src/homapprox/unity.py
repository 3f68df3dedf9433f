"""Even homogeneous approximation of the constant 1 on a smooth boundary.

Covers the boundary with the sphere patches of the partition family, fits
each cone-projected bump on its supporting line by a truncated Chebyshev
series, and lifts every fit to an even homogeneous polynomial through powers
of the supporting form <x, w>.  The ray correction gauge(x)^{2n} is folded
into the fitted function, so the lift is exact along rays instead of relying
on the boundary staying close to the supporting line.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import UnsupportedBodyError
from .partition import cube_pair_bump, sphere_patches
from .polys import (HomogeneousPoly, _lift_graded, _times_form, cheb_coeffs,
                    cheb_nodes)
from .report import ApproxReport


_FIT_RADIUS = 2.2   # fit interval half-length, in units of delta_K
_FIT_NODES = 4096   # Chebyshev sample count for the projection
_FIT_T = (cheb_nodes(_FIT_NODES) + 1) / 2   # the fit nodes mapped to [0, 1]
_WINDOW_MARGIN = 1e-9   # support-window widening, relative to hi - lo
_CUBE_CORNERS = np.array([[-1, -1], [-1, 1], [1, -1], [1, 1]])


@dataclass
class UnityParams:
    """Degree n and mesh size h of the unity construction.

    The default mesh is the calibrated desk-scale schedule
    clip(2.8/n, 0.1, 0.35), not the paper's asymptotic n^(-gamma): that mesh
    is far below what a degree-2n Chebyshev fit can resolve at practical n.
    Pass h=n**-gamma to use it anyway.
    """

    n: int
    h: float = None

    def resolve(self):
        """The mesh size h, with the default schedule filled in."""
        if self.n < 4:
            raise ValueError("n must be at least 4")
        h = float(np.clip(2.8 / self.n, 0.1, 0.35)) if self.h is None else self.h
        if not (0 < h <= 1):
            raise ValueError("mesh size h must be in (0, 1]")
        return h


def _lift_cheb(c, w, e, lo, hi, target):
    """Homogeneous degree-`target` coefficient rows (powers of y ascending) of

        h(x) = sum_j c[j] * <x,w>^(target-j) * G_j(x),

    one row per patch: c is (patches, terms), w and e are (patches, 2), lo and
    hi are (patches,).  G_j is the degree-j homogenization of
    T_j((2s - lo - hi)/(hi - lo)) under s = <x,e>/<x,w>, built by the
    recurrence G_j = 2 B G_{j-1} - <x,w>^2 G_{j-2} with B = alpha <x,e> +
    beta <x,w>.  On the supporting line pair {<x,w> = +/-1} row i restricts
    to the fitted Chebyshev sum of patch i in the tangent coordinate s.
    """
    c = np.pad(c, ((0, 0), (0, target + 1 - c.shape[1])))
    alpha = 2.0 / (hi - lo)
    beta = -(hi + lo) / (hi - lo)
    B = alpha[:, None] * e + beta[:, None] * w
    w2 = np.stack([w[:, 0] ** 2, 2 * w[:, 0] * w[:, 1], w[:, 1] ** 2], axis=1)

    def graded():
        g_prev = np.zeros((len(c), target + 1))
        g_prev[:, 0] = 1.0                        # G_0
        g_cur = _times_form(g_prev, B)            # G_1
        yield c[:, :1] * g_prev
        for j in range(1, c.shape[1]):
            if j > 1:
                g_prev, g_cur = g_cur, (2 * _times_form(g_cur, B)
                                        - _times_form(g_prev, w2))
            yield c[:, j:j + 1] * g_cur

    return _lift_graded(graded(), w)


def _support_window(patch, w, e):
    """(a, b) such that the patch's bump vanishes on {<x,w> = 1} off s in (a, b).

    The bump is nonzero only at directions inside its open cube pair.  A
    direction v with <v,w> > 0 meets the line at s = <v,e>/<v,w>, so a cube's
    cone meets it in the s-interval spanned by the cube's corners.  A cube
    with no corner on the line's side misses it; one straddling <x,w> = 0
    gets the whole line.
    """
    corners = patch.center + patch.h / 2 * _CUBE_CORNERS
    a, b = np.inf, -np.inf
    for v in (corners, -corners):
        vw = v @ w
        if np.all(vw <= 0):
            continue
        if np.any(vw <= 0):
            return -np.inf, np.inf
        s = (v @ e) / vw
        a, b = min(a, s.min()), max(b, s.max())
    return a, b


def _patch_coeffs(body, patches, target, radius):
    """Truncated Chebyshev series of each ray-corrected bump on its line.

    One row per patch of c, w, e, lo and hi.  A bump is evaluated only at the
    nodes inside its support window (widened by a relative margin against
    rounding; every other node is exactly 0), and the window nodes of all
    patches go through one bump evaluation, one gauge call and one batched
    transform.
    """
    geometry = []
    for patch in patches:
        u = patch.anchor_direction
        p_bd = u / body.gauge(u[None, :])[0]
        line = body.support_line(p_bd)
        w = np.asarray(line.normal, dtype=float)
        e = line.tangent_frame()[0]
        s_k = float(np.dot(p_bd, e))
        geometry.append((w, e, line.foot(), s_k - radius, s_k + radius,
                         *_support_window(patch, w, e)))
    w, e, x_c, lo, hi, a, b = (np.array(v) for v in zip(*geometry))

    ss = lo[:, None] + (hi - lo)[:, None] * _FIT_T
    margin = _WINDOW_MARGIN * (hi - lo)
    rows, cols = np.nonzero((ss >= (a - margin)[:, None])
                            & (ss <= (b + margin)[:, None]))
    x = x_c[rows] + ss[rows, cols][:, None] * e[rows]
    r = np.linalg.norm(x, axis=1)
    h = np.array([p.h for p in patches])[rows, None]
    offsets = np.array([p.offsets for p in patches])[rows]
    bump = cube_pair_bump(x / r[:, None], h, offsets)
    vals = np.zeros(ss.shape)
    nz = bump > 0
    vals[rows[nz], cols[nz]] = bump[nz] * body.gauge(x[nz]) ** target
    return cheb_coeffs(vals, axis=1)[:, :target + 1], w, e, lo, hi


def approximate_unity(body, params):
    """Even h_2n in H^2_2n with h_2n ~ 1 on the boundary of a smooth body."""
    if not body.is_smooth():
        raise UnsupportedBodyError(
            "body is not smooth enough for the supporting-line construction; "
            "use the planar weighted route instead")
    n = params.n
    h = params.resolve()
    radius = _FIT_RADIUS * body.delta()
    target = 2 * n

    c, w, e, lo, hi = _patch_coeffs(body, sphere_patches(h, 2), target, radius)
    return HomogeneousPoly.from_vector(
        _lift_cheb(c, w, e, lo, hi, target).sum(axis=0))


def unity_error_report(body, hp, samples=2000):
    """Sup/mean of |1 - hp| over a deterministic quasi-uniform boundary set."""
    if hp.degree % 2 != 0:
        raise ValueError("unity polynomial must have even degree")
    pts = body.boundary_points(samples)
    err = np.abs(1.0 - hp(pts))
    return ApproxReport(degree=hp.degree, sup_error=float(np.max(err)),
                        mean_error=float(np.mean(err)), n_samples=samples)
