"""Even homogeneous approximation of the constant 1 on a smooth boundary.

Covers the boundary with the sphere patches of the partition family, fits
each cone-projected bump on its supporting line by a truncated Chebyshev
series, and lifts every fit to an even homogeneous polynomial through powers
of the supporting form <x, w>.  The ray correction gauge(x)^{2n} is folded
into the fitted function, so the lift is exact along rays instead of relying
on the boundary staying close to the supporting line.

Approximants of several degrees on one mesh (`approximate_unities`, as the
geometric route needs one per graded part) are built together: the patches,
lines, support windows, bump and gauge samples are computed once, each
degree costs one batched transform, and one homogenized Chebyshev recurrence
feeds the Horner sums of all degrees in lockstep.
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


def _lift_cheb(cs, w, e, lo, hi, targets):
    """Homogeneous degree-T coefficient rows (powers of y ascending) of

        h_T(x) = sum_j c_T[j] * <x,w>^(T-j) * G_j(x),

    one (patches, T + 1) array per target T, one row per patch: each c_T in
    cs is (patches, terms), w and e are (patches, 2), lo and hi are
    (patches,).  G_j is the degree-j homogenization of
    T_j((2s - lo - hi)/(hi - lo)) under s = <x,e>/<x,w>, built by the
    recurrence G_j = 2 B G_{j-1} - <x,w>^2 G_{j-2} with B = alpha <x,e> +
    beta <x,w>.  The recurrence runs once for all targets; their Horner
    sums S_T <- <x,w> S_T + c_T[j] G_j run in lockstep, and each is taken at
    step j = T.  On the supporting line pair {<x,w> = +/-1} row i of h_T
    restricts to the fitted Chebyshev sum of patch i in the tangent
    coordinate s.
    """
    order = np.argsort(targets, kind="stable")[::-1]   # longest sum first
    top = targets[order[0]]
    c = np.zeros((len(targets), len(w), top + 1))
    for r, t in enumerate(order):
        c[r, :, :cs[t].shape[1]] = cs[t]
    # rows still summing at step j: the targets with T >= j
    live = (np.asarray(targets)[:, None] >= np.arange(top + 1)).sum(axis=0)
    alpha = 2.0 / (hi - lo)
    beta = -(hi + lo) / (hi - lo)
    B = alpha[:, None] * e + beta[:, None] * w
    w2 = np.stack([w[:, 0] ** 2, 2 * w[:, 0] * w[:, 1], w[:, 1] ** 2], axis=1)

    def graded():
        g_prev = np.ones((len(w), 1))              # G_0
        g_cur = _times_form(g_prev, B)             # G_1
        yield c[:, :, :1] * np.eye(1, top + 1)     # full length, degree 0
        for j in range(1, top + 1):
            if j > 1:
                g_prev, g_cur = g_cur, (2 * _times_form(g_cur, B)
                                        - _times_form(g_prev, w2))
            yield c[:live[j], :, j:j + 1] * g_cur

    s = _lift_graded(graded(), w)
    out = [None] * len(targets)
    for r, t in enumerate(order):
        out[t] = s[r, :, :targets[t] + 1].copy()
    return out


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


def _patch_coeffs(body, patches, targets, radius):
    """Truncated Chebyshev series of each ray-corrected bump on its line.

    Returns (cs, w, e, lo, hi): one (patches, T + 1) coefficient array in cs
    per target T, and one row per patch of the rest.  A bump is evaluated
    only at the nodes inside its support window (widened by a relative
    margin against rounding; every other node is exactly 0).  The line
    geometry, the window nodes of all patches, their bump values and their
    gauge values are computed once for all targets; each target then fills
    one shared sample buffer with bump * gauge^T and runs one batched
    transform, of which a copy of the kept coefficients is stored.
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
    nz = bump > 0
    rows, cols, bump = rows[nz], cols[nz], bump[nz]
    gauge = body.gauge(x[nz])
    vals = np.zeros(ss.shape)
    cs = []
    for target in targets:
        vals[rows, cols] = bump * gauge ** target
        # a copy: a slice would keep the whole transform alive
        cs.append(cheb_coeffs(vals, axis=1)[:, :target + 1].copy())
    return cs, w, e, lo, hi


def approximate_unities(body, params):
    """approximate_unity for each UnityParams of one mesh, built together.

    Every entry must resolve to the same mesh h, so all of them share the
    patches, their lines and support windows, and the bump and gauge samples
    of the fit; only the exponent 2n of the ray correction and the
    truncation differ.  The lift runs one recurrence for all of them.
    """
    if not body.is_smooth():
        raise UnsupportedBodyError(
            "body is not smooth enough for the supporting-line construction; "
            "use the planar weighted route instead")
    meshes = {p.resolve() for p in params}
    if len(meshes) != 1:
        raise ValueError(f"unity parameters span {len(meshes)} meshes, not 1")
    radius = _FIT_RADIUS * body.delta()
    targets = [2 * p.n for p in params]

    cs, w, e, lo, hi = _patch_coeffs(body, sphere_patches(meshes.pop(), 2),
                                     targets, radius)
    return [HomogeneousPoly.from_vector(rows.sum(axis=0))
            for rows in _lift_cheb(cs, w, e, lo, hi, targets)]


def approximate_unity(body, params):
    """Even h_2n in H^2_2n with h_2n ~ 1 on the boundary of a smooth body."""
    return approximate_unities(body, [params])[0]


def unity_error_report(body, hp, samples=2000):
    """Sup/mean of |1 - hp| over a deterministic quasi-uniform boundary set."""
    if hp.degree % 2 != 0:
        raise ValueError("unity polynomial must have even degree")
    pts = body.boundary_points(samples)
    err = np.abs(1.0 - hp(pts))
    return ApproxReport(degree=hp.degree, sup_error=float(np.max(err)),
                        mean_error=float(np.mean(err)), n_samples=samples)
