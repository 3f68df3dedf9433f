"""Even homogeneous approximation of the constant 1 on a smooth boundary.

Covers the boundary with the sphere patches of the partition family, fits
each cone-projected bump on its supporting line by a truncated Chebyshev
series, and lifts every fit to an even homogeneous polynomial through powers
of the supporting form <x, w>.  The ray correction gauge(x)^{2n} is folded
into the fitted function, so the lift is exact along rays instead of relying
on the boundary staying close to the supporting line.

Approximants of several degrees (`approximate_unities`, as the geometric
route needs one per graded part) are built together per `mesh_size`: the
patches, lines, support windows, bump and gauge samples are computed once,
each degree costs one cosine sum per patch over the nodes of its support
window and the kept terms only, and one homogenized Chebyshev recurrence
feeds the Horner sums of all degrees in lockstep.
"""

from __future__ import annotations

import numpy as np

from .errors import UnsupportedBodyError
from .partition import anchor_directions, cube_pair_bump, sphere_patches
from .polys import HomogeneousPoly, _lift_graded, _times_form, cheb_nodes
from .report import ApproxReport


_FIT_RADIUS = 2.2   # fit interval half-length, in units of delta_K
_FIT_NODES = 4096   # Chebyshev sample count for the projection
_FIT_T = (cheb_nodes(_FIT_NODES) + 1) / 2   # the fit nodes mapped to [0, 1]
# cos(m pi / 2N), m < 4N: every cosine of the fit's DCT-II
_FIT_COS = np.cos(np.arange(4 * _FIT_NODES) * (np.pi / (2 * _FIT_NODES)))
_WINDOW_MARGIN = 1e-9   # support-window widening, relative to hi - lo
_CUBE_CORNERS = np.array([[-1, -1], [-1, 1], [1, -1], [1, 1]])


def mesh_size(n, h=None):
    """The mesh size of the degree-2n unity construction, h if given.

    The default mesh is the calibrated desk-scale schedule
    clip(2.8/n, 0.1, 0.35), not the paper's asymptotic n^(-gamma): that mesh
    is far below what a degree-2n Chebyshev fit can resolve at practical n.
    Pass h=n**-gamma to use it anyway.
    """
    if n < 4:
        raise ValueError("n must be at least 4")
    h = float(np.clip(2.8 / n, 0.1, 0.35)) if h is None else h
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


def _support_window(center, h, w, e):
    """Arrays (a, b) such that the bump of the patch whose positive cube of
    side h is centered at center[i] vanishes on the line {<x,w[i]> = 1} off
    s in (a[i], b[i]).

    The bump is nonzero only at directions inside its open cube pair.  A
    direction v with <v,w> > 0 meets the line at s = <v,e>/<v,w>, so a cube's
    cone meets it in the s-interval spanned by the cube's corners.  A cube
    with no corner on the line's side misses it (a patch whose cubes both
    miss gets the empty window (inf, -inf)); one straddling <x,w> = 0 gets
    the whole line.
    """
    corners = center[:, None, :] + h / 2 * _CUBE_CORNERS
    v = np.stack([corners, -corners], axis=1)      # (patches, cube, corner, 2)
    vw = np.vecdot(v, w[:, None, None, :])
    ahead = vw > 0
    s = np.divide(np.vecdot(v, e[:, None, None, :]), vw,
                  out=np.zeros_like(vw), where=ahead)
    meets = ahead.any(axis=2, keepdims=True)
    a = np.where(meets, s, np.inf).min(axis=(1, 2))
    b = np.where(meets, s, -np.inf).max(axis=(1, 2))
    straddles = (meets & ~ahead).any(axis=(1, 2))
    a[straddles], b[straddles] = -np.inf, np.inf
    return a, b


def _window_coeffs(vals, start, stop, terms):
    """cheb_coeffs(rows)[:, :terms] of rows of _FIT_NODES samples that are 0
    off the node ranges [start[i], stop[i]); vals holds each row's samples on
    its range, one row after the other.

    A coefficient is the cosine sum of the DCT-II that cheb_coeffs runs,
    c_j = (2/N) sum_k v_k cos(j (2k + 1) pi / 2N) with c_0 halved, taken
    over the row's range only and for j < terms only: one vector-matrix
    product per row.  The cosines are read from a table of cos(m pi / 2N) at
    m = j (2k + 1) mod 4N, so no angle past 2 pi is rounded; the table rows
    span the union of the ranges.
    """
    used = stop > start
    first = start[used].min(initial=_FIT_NODES)
    k = np.arange(first, stop[used].max(initial=first))
    cos = _FIT_COS[np.outer(2 * k + 1, np.arange(terms)) % len(_FIT_COS)]
    out = np.zeros((len(start), terms))
    end = 0
    for i, (a, b) in enumerate(zip(start.tolist(), stop.tolist())):
        out[i] = vals[end:end + b - a] @ cos[a - first:b - first]
        end += b - a
    out *= 2 / _FIT_NODES
    out[:, 0] *= 0.5
    return out


def _patch_coeffs(body, offsets, h, targets, radius):
    """Truncated Chebyshev series of each ray-corrected bump on its line.

    The patches are the rows of offsets, `sphere_patches` of mesh h.
    Returns (cs, w, e, lo, hi): one (patches, T + 1) coefficient array in cs
    per target T, and one row per patch of the rest.  The line geometry of
    all patches is one batch.  A bump is evaluated only at the fit nodes
    inside its support window (widened by a relative margin against
    rounding), an index range of the monotone _FIT_T; it is exactly 0 at
    every other node, so each target's kept coefficients are the windowed
    cosine sums of `_window_coeffs`, the truncation of cheb_coeffs over all
    nodes.  The window nodes, their bump values and their gauge values are
    computed once for all targets, and each target sums bump * gauge^T.
    """
    center = offsets * h / 6
    u = anchor_directions(center)
    p_bd = u / body.gauge(u)[:, None]
    line = body.support_line(p_bd)
    w, e = line.normal, line.tangent_frame()
    s_k = np.vecdot(p_bd, e)
    lo, hi = s_k - radius, s_k + radius
    a, b = _support_window(center, h, w, e)
    # node k is in the window if a - margin <= lo + (hi - lo) _FIT_T[k] <=
    # b + margin, and _FIT_T falls with k
    margin = _WINDOW_MARGIN * (hi - lo)
    rising = _FIT_T[::-1]
    start = _FIT_NODES - np.searchsorted(rising, (b + margin - lo) / (hi - lo),
                                         side="right")
    stop = np.maximum(start, _FIT_NODES - np.searchsorted(
        rising, (a - margin - lo) / (hi - lo), side="left"))
    # the window nodes of all patches, one patch after the other: patch
    # rows[i], node cols[i]
    count = stop - start
    rows = np.repeat(np.arange(len(offsets)), count)
    begin = np.cumsum(count) - count
    cols = np.arange(count.sum()) + np.repeat(start - begin, count)
    ss = lo[rows] + (hi - lo)[rows] * _FIT_T[cols]
    x = line.foot()[rows] + ss[:, None] * e[rows]
    r = np.linalg.norm(x, axis=1)
    bump = cube_pair_bump(x / r[:, None], h, offsets[rows])
    nz = bump > 0
    gauge = np.zeros(len(bump))
    gauge[nz] = body.gauge(x[nz])
    cs = [_window_coeffs(bump * gauge ** target, start, stop, target + 1)
          for target in targets]
    return cs, w, e, lo, hi


def approximate_unities(body, ns, h=None):
    """approximate_unity(body, n, h) for each n in ns, in order.

    The degrees are grouped by mesh, and the degrees of one mesh share the
    patches, their lines and support windows, and the bump and gauge samples
    of the fit; only the exponent 2n of the ray correction and the
    truncation differ.  The lift runs one recurrence per mesh.
    """
    if not body.is_smooth():
        raise UnsupportedBodyError(
            "body is not smooth enough for the supporting-line construction; "
            "use the planar weighted route instead")
    meshes = {}
    for i, n in enumerate(ns):
        meshes.setdefault(mesh_size(n, h), []).append(i)
    radius = _FIT_RADIUS * body.delta()
    out = [None] * len(ns)
    for mesh, idx in meshes.items():
        targets = [2 * ns[i] for i in idx]
        cs, w, e, lo, hi = _patch_coeffs(body, sphere_patches(mesh, 2), mesh,
                                         targets, radius)
        for i, rows in zip(idx, _lift_cheb(cs, w, e, lo, hi, targets)):
            out[i] = HomogeneousPoly.from_vector(rows.sum(axis=0))
    return out


def approximate_unity(body, n, h=None):
    """Even h_2n in H^2_2n with h_2n ~ 1 on the boundary of a smooth body."""
    return approximate_unities(body, [n], h)[0]


def unity_error_report(body, hp):
    """Sup/mean of |1 - hp| over 2000 quasi-uniform boundary points."""
    if hp.degree % 2 != 0:
        raise ValueError("unity polynomial must have even degree")
    pts = body.boundary_points(2000)
    err = np.abs(1.0 - hp(pts))
    return ApproxReport(degree=hp.degree, sup_error=float(np.max(err)),
                        mean_error=float(np.mean(err)), n_samples=len(pts))
