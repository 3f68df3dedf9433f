"""Smooth partition of unity from shifted even bump functions.

The 1-D family comes from an odd C-infinity step g, the even profile g* built
from it (1 on [-1,1], 0 beyond |x| = 3) and the translates
g_k(x) = g*(x - 4k) + g*(x + 4k).  Tensor products of g_k(6 x_j / h) tile
R^d; `active_indices` enumerates the multi-indices whose support meets the
unit sphere, and `sphere_patches` splits each of them into antipodal cube
pairs for the supporting-hyperplane construction.
"""

from __future__ import annotations

import itertools

import numpy as np


def _smoothstep(u):
    """C-infinity monotone step: 0 for u <= 0, 1 for u >= 1."""
    u = np.asarray(u, dtype=float)
    with np.errstate(divide="ignore", over="ignore"):
        a = np.where(u > 0, np.exp(-1.0 / np.maximum(u, 1e-300)), 0.0)
        b = np.where(u < 1, np.exp(-1.0 / np.maximum(1 - u, 1e-300)), 0.0)
    return a / (a + b)


def g_odd(x):
    """Odd C-infinity step: 1 for x <= -1/2, 0 at 0, -1 for x >= 1/2."""
    x = np.asarray(x, dtype=float)
    return -np.sign(x) * _smoothstep(np.clip(2 * np.abs(x), 0.0, 1.0))


def gstar(x):
    """Even profile: 1 on [-1,1], 0 for |x| > 3, monotone on [1,3]."""
    ax = np.abs(np.asarray(x, dtype=float))
    # each point's stage first, so g_odd runs once: (1, 2] falls from 1 to
    # 1/2 around 1.5, (2, 3] from 1/2 to 0 around 2.5
    outer = ax > 2
    ramp = g_odd(ax - np.where(outer, 2.5, 1.5)) / 4 + np.where(outer, 0.25, 0.75)
    return np.where(ax <= 1, 1.0, np.where(ax <= 3, ramp, 0.0))


def g_1d(k, x):
    """1-D partition member: g*(x) for k = 0, else g*(x-4k) + g*(x+4k);
    k is one index or one per point."""
    return np.where(k == 0, gstar(x), gstar(x - 4 * k) + gstar(x + 4 * k))


def g_k(k, h, x):
    """Tensor bump prod_j g_{k_j}(6 x_j / h); vectorized over points."""
    x = np.asarray(x, dtype=float)
    k = tuple(int(v) for v in np.atleast_1d(k))
    if x.ndim == 1 and len(k) == 1 and x.shape[0] != 1:
        x = x[:, None]
    xi = 6.0 * x / h
    if xi.ndim == 1:
        xi = xi[None, :]
    vals = np.ones(xi.shape[0])
    for j, kj in enumerate(k):
        vals = vals * g_1d(kj, xi[:, j])
    return vals if len(vals) != 1 else float(vals[0])


def _support_1d(k, h):
    """|x| range of the support of g_{k}(6 x / h)."""
    if k == 0:
        return 0.0, h / 2.0
    return max(0.0, (4 * k - 3) * h / 6.0), (4 * k + 3) * h / 6.0


def active_indices(h, d):
    """Multi-indices whose support cubes intersect the unit sphere."""
    if not (0 < h <= 1):
        raise ValueError("h must be in (0, 1]")
    kmax = int(np.floor((6.0 / h + 3.0) / 4.0)) + 1
    out = []
    ranges = [range(kmax + 1)] * d
    for k in itertools.product(*ranges):
        lo2 = hi2 = 0.0
        for kj in k:
            lo, hi = _support_1d(kj, h)
            lo2 += lo * lo
            hi2 += hi * hi
        if lo2 <= 1.0 <= hi2:
            out.append(k)
    return out


def partition_sum_and_overlap(points, h):
    """(sum_k g_k, overlap count) at each point, via per-coordinate locality.

    For each coordinate at most two 1-D members are nonzero, so the full sum
    over Z^d_+ reduces to a product of small per-coordinate sums.
    """
    x = np.atleast_2d(np.asarray(points, dtype=float))
    n, d = x.shape
    xi = 6.0 * np.abs(x) / h
    total = np.ones(n)
    counts = np.ones(n)
    for j in range(d):
        v = xi[:, j]
        base = np.round(v / 4.0).astype(int)   # v >= 0, so base >= 0
        s = np.zeros(n)
        c = np.zeros(n)
        for off in (-1, 0, 1):
            k = base + off
            vals = np.where(k < 0, 0.0, g_1d(k, v))
            s += vals
            c += vals > 0
        total *= s
        counts *= c
    return total, counts.astype(int)


def anchor_directions(centers):
    """The unit vectors of cube centers (..., d): the anchor directions of
    their patches, one batch computed as one patch's."""
    c = np.asarray(centers, dtype=float)
    return c / np.sqrt(np.vecdot(c, c))[..., None]


def cube_pair_bump(u, h, offsets):
    """prod_j g*(xi_j - o_j) + prod_j g*(xi_j + o_j) with xi = 6 u / h.

    The even bump of a patch of `sphere_patches(h, d)` at directions u
    (points, d).  The offsets o are one patch's row, or one row per point, so
    the bumps of many patches of one mesh evaluate in one pass.
    """
    xi = 6.0 * u / h
    pos = np.ones(u.shape[0])
    neg = np.ones(u.shape[0])
    for j in range(u.shape[1]):
        pos = pos * gstar(xi[:, j] - offsets[..., j])
        neg = neg * gstar(xi[:, j] + offsets[..., j])
    return pos + neg


def sphere_patches(h, d):
    """Antipodal-pair patches covering the unit sphere for mesh size h.

    Returns the (patches, d) array of their cube-pair shifts 4 k_j s_j, in
    the scaled coordinates xi = 6 u / h, for each active multi-index k and
    sign pattern s.  A patch's positive cube is centered at its row * h / 6.
    """
    offsets = []
    for k in active_indices(h, d):
        nz = [j for j, kj in enumerate(k) if kj > 0]
        if not nz:
            # the all-zero cube [-h/2, h/2]^d cannot reach the sphere for h <= 1
            raise AssertionError("zero multi-index unexpectedly active")
        # sign patterns modulo a global flip: first nonzero coordinate fixed +
        # (a zero k_j shifts by 0 whatever its sign)
        for tail in itertools.product((1, -1), repeat=len(nz) - 1):
            signs = np.ones(d, dtype=int)
            signs[nz[1:]] = tail
            offsets.append(4 * np.array(k) * signs)
    return np.array(offsets, dtype=float)

