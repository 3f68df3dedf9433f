"""Centrally symmetric convex bodies and their geometric primitives.

Every body is planar.  A body is exposed through its Minkowski gauge |x|_K,
radial function r(u), boundary points by direction angle, supporting lines,
the diameter constant delta_K and the slope parametrization
t -> (x(t), y(t)) that induces the boundary weight W(t) = x(t).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.interpolate import CubicSpline
from scipy.optimize import minimize_scalar

from .errors import BoundaryPointError, DimensionError
from .potential import Weight

_BOUNDARY_TOL = 1e-9


def _slope_directions(ts):
    """Directions (1, t) for an array of finite slopes t."""
    ts = np.asarray(ts, dtype=float)
    return np.stack([np.ones_like(ts), ts], axis=-1)


@dataclass(frozen=True)
class SupportLine:
    """Supporting line {x : <x, w> = 1} of normal w, or a batch of them: the
    normals (..., 2) and everything derived from them broadcast over the
    leading axes."""

    normal: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "normal", np.asarray(self.normal, dtype=float))

    def tangent_frame(self):
        """Unit vector e along the line."""
        w = self.normal
        return (np.stack([-w[..., 1], w[..., 0]], axis=-1)
                / np.sqrt(np.vecdot(w, w))[..., None])

    def foot(self):
        """Closest point of the line to the origin."""
        w = self.normal
        return w / np.vecdot(w, w)[..., None]


def _lengths(values, count, what):
    """`values` as an array of `count` finite positive floats."""
    arr = np.asarray(values, dtype=float)
    if arr.shape != (count,):
        raise DimensionError(f"{what} needs {count} values")
    if not np.all(np.isfinite(arr) & (arr > 0)):
        raise ValueError(f"{what} must be finite and positive")
    return arr


class ConvexBody:
    """Centrally symmetric planar convex body, known through its gauge.

    Construct through the classmethods (`disk`, `ellipse`, `polygon`, `square`,
    `pnorm_ball`, `radial_samples`).  Each factory owns its
    shape: it passes closures for the gauge and its gradient over its own
    data, and its closed-form delta_K (None if it has none), corners and
    smoothness.  Instances are immutable; all operations are pure.
    """

    def __init__(self, kind, gauge, gradient, *, delta=None,
                 corners=np.zeros((0, 2)), smooth=True):
        self.kind = kind
        self._gauge = gauge
        self._gradient = gradient
        self._delta = delta
        self._corners = np.array(corners, dtype=float)
        self._corners.setflags(write=False)
        self._smooth = smooth

    # ---------------------------------------------------------------- factories

    @classmethod
    def disk(cls, radius=1.0):
        radius, = _lengths([radius], 1, "disk radius")
        return cls.ellipse(radius, radius)

    @classmethod
    def ellipse(cls, *semi_axes):
        axes = _lengths(semi_axes, 2, "ellipse semi-axes")

        def gauge(x):
            return np.sqrt(np.sum((x / axes) ** 2, axis=-1))

        def gradient(x):
            return (x / axes ** 2) / gauge(x)[..., None]

        return cls("ellipse", gauge, gradient, delta=float(np.max(axes)))

    @classmethod
    def polygon(cls, vertices):
        verts = np.asarray(vertices, dtype=float)
        if verts.ndim != 2 or verts.shape[1] != 2 or verts.shape[0] < 4:
            raise DimensionError("polygon needs >= 4 planar vertices")
        if not np.all(np.isfinite(verts)):
            raise ValueError("polygon vertices must be finite")
        # order counter-clockwise by angle
        ang = np.arctan2(verts[:, 1], verts[:, 0])
        verts = verts[np.argsort(ang)]
        for v in verts:
            d = np.min(np.linalg.norm(verts + v, axis=1))
            if d > 1e-9 * (1 + np.linalg.norm(v)):
                raise ValueError("polygon is not centrally symmetric")
        # edge i, from vertex i to vertex i + 1, is {<x, forms[i]> = 1}
        edges = np.stack([verts, np.roll(verts, -1, axis=0)], axis=1)
        # an edge on a line through the origin has no such form
        flat = np.abs(np.linalg.det(edges)) <= 1e-12 * np.prod(
            np.linalg.norm(edges, axis=2), axis=1)
        if np.any(flat):
            v, w = (f"({x:g}, {y:g})" for x, y in edges[np.argmax(flat)])
            raise ValueError(f"polygon repeats vertex {v}" if v == w else
                             f"polygon vertices {v} and {w} lie on one ray "
                             "from the origin")
        forms = np.linalg.solve(edges, np.ones((len(verts), 2, 1)))[..., 0]
        # the half-planes bound a different body if they cut off a vertex
        if np.max(verts @ forms.T) > 1 + 1e-9:
            raise ValueError("polygon is not convex")

        def gauge(x):
            return np.max(x @ forms.T, axis=-1)

        def gradient(x):
            vals = x @ forms.T
            best = np.max(vals, axis=-1, keepdims=True)
            # vertex tie: the smallest index among ties, edges in CCW order
            idx = np.argmax(vals >= best - 1e-12 * (1 + np.abs(best)), axis=-1)
            return forms[idx]

        return cls("polygon", gauge, gradient,
                   delta=float(np.max(np.linalg.norm(verts, axis=1))),
                   corners=verts, smooth=False)

    @classmethod
    def square(cls, half_width=1.0):
        s, = _lengths([half_width], 1, "square half width")
        return cls.polygon([(s, s), (-s, s), (-s, -s), (s, -s)])

    @classmethod
    def pnorm_ball(cls, p, semi_axes=(1.0, 1.0)):
        if not 1 <= p < np.inf:
            raise ValueError("pnorm ball needs finite p >= 1")
        axes = _lengths(semi_axes, 2, "pnorm semi-axes")
        if p == 1:
            # the diamond: a polygon, so its vertices are its corners
            a, b = axes
            return cls.polygon([(a, 0), (0, b), (-a, 0), (0, -b)])
        p = float(p)

        def gauge(x):
            return np.sum(np.abs(x / axes) ** p, axis=-1) ** (1.0 / p)

        def gradient(x):
            return (np.sign(x) * np.abs(x / axes) ** (p - 1) / axes
                    * gauge(x)[..., None] ** (1 - p))

        return cls("pnorm", gauge, gradient, smooth=p >= 2)

    @classmethod
    def radial_samples(cls, angles, radii):
        """Planar body whose r(theta) is the pi-periodic C^2 cubic spline
        through the samples (r(theta + pi) = r(theta) is the symmetry), accepted
        when its curvature form r^2 + 2 r'^2 - r r'' is >= 0 on a dense grid."""
        ang = np.asarray(angles, dtype=float)
        rad = np.asarray(radii, dtype=float)
        if ang.ndim != 1 or ang.shape != rad.shape or not len(ang):
            raise DimensionError("radial samples need equally many angles "
                                 "and radii, at least one")
        if not np.all(np.isfinite(ang) & (rad > 0) & np.isfinite(rad)):
            raise ValueError("radial samples must be finite, radii positive")
        ang = ang % np.pi
        # angles equal at 12 digits count once, and one that rounds to pi as 0
        idx = np.unique(np.round(ang, 12) % round(np.pi, 12), return_index=True)[1]
        idx = idx[np.argsort(ang[idx])]
        interp = CubicSpline(np.append(ang[idx], ang[idx[0]] + np.pi),
                             rad[np.append(idx, idx[0])], bc_type="periodic")
        # 16 angles per knot interval, the knots included
        theta = np.interp(np.arange(16 * len(idx)) / 16, np.arange(len(idx) + 1),
                          interp.x)
        r, dr, ddr = (interp(theta, k) for k in range(3))
        if np.min(r ** 2 + 2 * dr ** 2 - r * ddr) < -1e-9 * np.max(r) ** 2:
            raise ValueError("radial samples do not describe a convex body")

        def gauge(x):
            # |x| / r(theta)
            return np.linalg.norm(x, axis=-1) / interp(np.arctan2(x[..., 1], x[..., 0]))

        def gradient(x):
            # grad(|x|/r(theta)) = (x + r'(theta)/r(theta) (y, -x)) / (|x| r(theta))
            theta = np.arctan2(x[..., 1], x[..., 0])
            r, dr = (interp(theta, k)[..., None] for k in range(2))
            turn = np.stack([x[..., 1], -x[..., 0]], axis=-1)
            return (x + dr / r * turn) / (np.linalg.norm(x, axis=-1, keepdims=True) * r)

        return cls("radial", gauge, gradient)

    # ---------------------------------------------------------------- gauge

    def gauge(self, x):
        """Minkowski functional |x|_K; vectorized over leading axes."""
        x = np.asarray(x, dtype=float)
        if x.shape[-1] != 2:
            raise DimensionError(f"point dimension {x.shape[-1]} != body dimension 2")
        return self._gauge(x)

    def radial(self, u):
        """Distance from the origin to the boundary in direction u (unit or not)."""
        u = np.asarray(u, dtype=float)
        return np.linalg.norm(u, axis=-1) / self.gauge(u)

    def gauge_gradient(self, x):
        """Gradient of the gauge at x != 0 (a.e. for polytopes); vectorized over leading axes."""
        return self._gradient(np.asarray(x, dtype=float))

    # ---------------------------------------------------------------- derived quantities

    def delta(self):
        """delta_K = max Euclidean norm over the boundary, sampled on first use
        when the factory gave no closed form."""
        if self._delta is None:
            thetas = np.linspace(0, np.pi, 2049)
            r = self.boundary_at(thetas)[1]
            t0 = thetas[int(np.argmax(r))]
            span = np.pi / 2048
            res = minimize_scalar(lambda t: -self.boundary_at(t)[1],
                                  bounds=(t0 - span, t0 + span), method="bounded",
                                  options={"xatol": 1e-12})
            self._delta = float(max(np.max(r), -res.fun))
        return self._delta

    def support_line(self, p):
        """Supporting line at boundary point p, normalized to <x, w> = 1; for
        points p (..., 2), the batch of their lines."""
        p = np.asarray(p, dtype=float)
        g = np.ravel(self.gauge(p))
        off = np.abs(g - 1.0)
        if np.any(off > _BOUNDARY_TOL):
            raise BoundaryPointError(
                f"gauge(p) = {g[np.argmax(off)]}, not on the boundary")
        w = self.gauge_gradient(p)
        return SupportLine(normal=w / np.vecdot(w, p)[..., None])

    def boundary_at(self, theta):
        """Boundary points in the directions of the angles theta, and their
        distances from the origin."""
        dirs = np.stack([np.cos(theta), np.sin(theta)], axis=-1)
        radius = self.radial(dirs)
        return dirs * radius[..., None], radius

    def boundary_points(self, n, seed=None):
        """n quasi-uniform boundary samples (random directions when seeded)."""
        if seed is not None:
            theta = np.random.default_rng(seed).uniform(0, 2 * np.pi, n)
        else:
            theta = 2 * np.pi * (np.arange(n) + 0.5) / n
        return self.boundary_at(theta)[0]

    # ---------------------------------------------------------------- slope parametrization

    def slope_points(self, ts):
        """Boundary points (x(t), y(t)) with y/x = t and x > 0, for finite slopes."""
        u = _slope_directions(ts)
        return u / self.gauge(u)[..., None]

    def weight(self):
        """Boundary weight W(t) = x(t), derived from the gauge alone.

        W(t) = 1/gauge((1, t)) and Q'(t) = d_y gauge((1, t)) / gauge((1, t));
        rho is the radius in direction (0, 1).
        """
        def w_fn(t):
            return 1.0 / self.gauge(_slope_directions(t))

        def qp_fn(t):
            u = _slope_directions(t)
            return self.gauge_gradient(u)[..., 1] / self.gauge(u)

        verts = self.corners()
        side = verts[:, 0] != 0
        kinks = tuple(np.unique(verts[side, 1] / verts[side, 0]).tolist())
        return Weight(w_fn=w_fn, qp_fn=qp_fn, rho=float(self.radial(np.array([0.0, 1.0]))),
                      kinks=kinks)

    # ---------------------------------------------------------------- misc

    def corners(self):
        """The boundary's corners, one row each: a polygon's vertices, and a
        (0, 2) array for every other body; read-only, and the body's own."""
        return self._corners

    def is_smooth(self):
        """True for bodies accepted on the geometric (partition) route."""
        return self._smooth

    def __repr__(self):
        return f"ConvexBody(kind={self.kind!r})"

