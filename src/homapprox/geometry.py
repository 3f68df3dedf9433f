"""Centrally symmetric convex bodies and their geometric primitives.

Every body is planar.  A body is exposed through its Minkowski gauge |x|_K,
radial function r(u), boundary points by direction angle, supporting lines,
the diameter constant delta_K and the slope parametrization
t -> (x(t), y(t)) that induces the boundary weight W(t) = x(t).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.interpolate import PchipInterpolator
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
    """Centrally symmetric planar convex body given by one of several shape variants.

    Construct through the classmethods (`disk`, `ellipse`, `polygon`,
    `pnorm_ball`, `radial_samples`).  Instances are immutable; all operations
    are pure.
    """

    def __init__(self, kind, params):
        self.kind = kind
        self.params = params
        self._delta = None
        if kind == "radial":
            self._validate_radial_convexity()

    # ---------------------------------------------------------------- factories

    @classmethod
    def disk(cls, radius=1.0):
        radius, = _lengths([radius], 1, "disk radius")
        return cls("disk", {"radius": float(radius)})

    @classmethod
    def ellipse(cls, *semi_axes):
        return cls("ellipse", {"axes": _lengths(semi_axes, 2, "ellipse semi-axes")})

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
        return cls("polygon", {"vertices": verts, "edge_forms": forms})

    @classmethod
    def square(cls, half_width=1.0):
        s, = _lengths([half_width], 1, "square half width")
        return cls.polygon([(s, s), (-s, s), (-s, -s), (s, -s)])

    @classmethod
    def pnorm_ball(cls, p, semi_axes=(1.0, 1.0)):
        if not 1 <= p < np.inf:
            raise ValueError("pnorm ball needs finite p >= 1")
        axes = _lengths(semi_axes, 2, "pnorm semi-axes")
        return cls("pnorm", {"p": float(p), "axes": axes})

    @classmethod
    def radial_samples(cls, angles, radii):
        """Planar body from samples of r(theta); even symmetry is enforced."""
        ang = np.asarray(angles, dtype=float) % (2 * np.pi)
        rad = np.asarray(radii, dtype=float)
        if not np.all(np.isfinite(ang) & (rad > 0) & np.isfinite(rad)):
            raise ValueError("radial samples must be finite, radii positive")
        # symmetrize: r(theta) and r(theta + pi) both contribute
        ang_full = np.concatenate([ang, (ang + np.pi) % (2 * np.pi)])
        rad_full = np.concatenate([rad, rad])
        order = np.argsort(ang_full)
        ang_full, rad_full = ang_full[order], rad_full[order]
        ang_full, idx = np.unique(np.round(ang_full, 12), return_index=True)
        rad_full = rad_full[idx]
        # periodic pad for monotone cubic interpolation
        ang_ext = np.concatenate([ang_full - 2 * np.pi, ang_full, ang_full + 2 * np.pi])
        rad_ext = np.tile(rad_full, 3)
        interp = PchipInterpolator(ang_ext, rad_ext)
        return cls("radial", {"interp": interp, "dinterp": interp.derivative()})

    @classmethod
    def from_config(cls, spec):
        """Build a body from the CLI body sub-schema."""
        kind = spec["type"]
        if kind == "disk":
            return cls.disk(spec.get("radius", 1.0))
        if kind == "ellipse":
            return cls.ellipse(*spec["semi_axes"])
        if kind == "square":
            return cls.square(spec.get("half_width", 1.0))
        if kind == "polygon":
            return cls.polygon(spec["vertices"])
        if kind == "pnorm":
            return cls.pnorm_ball(spec["p"], spec.get("semi_axes", (1.0, 1.0)))
        if kind == "radial-samples":
            return cls.radial_samples(spec["angles"], spec["radii"])
        raise ValueError(f"unknown body type {kind!r}")

    # ---------------------------------------------------------------- gauge

    def gauge(self, x):
        """Minkowski functional |x|_K; vectorized over leading axes."""
        x = np.asarray(x, dtype=float)
        if x.shape[-1] != 2:
            raise DimensionError(f"point dimension {x.shape[-1]} != body dimension 2")
        if self.kind == "disk":
            return np.linalg.norm(x, axis=-1) / self.params["radius"]
        if self.kind == "ellipse":
            return np.sqrt(np.sum((x / self.params["axes"]) ** 2, axis=-1))
        if self.kind == "pnorm":
            p = self.params["p"]
            return np.sum(np.abs(x / self.params["axes"]) ** p, axis=-1) ** (1.0 / p)
        if self.kind == "polygon":
            return np.max(x @ self.params["edge_forms"].T, axis=-1)
        # radial: |x| / r(theta)
        nrm = np.linalg.norm(x, axis=-1)
        theta = np.arctan2(x[..., 1], x[..., 0]) % (2 * np.pi)
        return nrm / self.params["interp"](theta)

    def radial(self, u):
        """Distance from the origin to the boundary in direction u (unit or not)."""
        u = np.asarray(u, dtype=float)
        return np.linalg.norm(u, axis=-1) / self.gauge(u)

    def gauge_gradient(self, x):
        """Gradient of the gauge at x != 0 (a.e. for polytopes); vectorized over leading axes."""
        x = np.asarray(x, dtype=float)
        if self.kind == "disk":
            return x / (np.linalg.norm(x, axis=-1, keepdims=True) * self.params["radius"])
        if self.kind == "ellipse":
            a = self.params["axes"]
            return (x / a ** 2) / self.gauge(x)[..., None]
        if self.kind == "pnorm":
            p = self.params["p"]
            a = self.params["axes"]
            g = self.gauge(x)[..., None]
            return np.sign(x) * np.abs(x / a) ** (p - 1) / a * g ** (1 - p)
        if self.kind == "polygon":
            forms = self.params["edge_forms"]
            vals = x @ forms.T
            best = np.max(vals, axis=-1, keepdims=True)
            # vertex tie: the smallest index among ties, edges in CCW order
            idx = np.argmax(vals >= best - 1e-12 * (1 + np.abs(best)), axis=-1)
            return forms[idx]
        # radial: grad(|x|/r(theta)) = (x + r'(theta)/r(theta) (y, -x)) / (|x| r(theta))
        theta = np.arctan2(x[..., 1], x[..., 0]) % (2 * np.pi)
        r = self.params["interp"](theta)[..., None]
        dr = self.params["dinterp"](theta)[..., None]
        turn = np.stack([x[..., 1], -x[..., 0]], axis=-1)
        return (x + dr / r * turn) / (np.linalg.norm(x, axis=-1, keepdims=True) * r)

    # ---------------------------------------------------------------- derived quantities

    def delta(self):
        """delta_K = max Euclidean norm over the boundary."""
        if self._delta is not None:
            return self._delta
        if self.kind == "disk":
            val = self.params["radius"]
        elif self.kind == "ellipse":
            val = float(np.max(self.params["axes"]))
        elif self.kind == "polygon":
            val = float(np.max(np.linalg.norm(self.params["vertices"], axis=1)))
        else:
            val = self._max_radial_2d()
        self._delta = val
        return val

    def _max_radial_2d(self):
        thetas = np.linspace(0, np.pi, 2049)
        dirs = np.stack([np.cos(thetas), np.sin(thetas)], axis=-1)
        r = self.radial(dirs)
        t0 = thetas[int(np.argmax(r))]
        span = np.pi / 2048

        def neg_r(t):
            return -self.radial(np.array([np.cos(t), np.sin(t)]))

        res = minimize_scalar(neg_r, bounds=(t0 - span, t0 + span), method="bounded",
                              options={"xatol": 1e-12})
        return float(max(np.max(r), -res.fun))

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
                      lower_accuracy=self.kind == "radial", kinks=kinks)

    # ---------------------------------------------------------------- misc

    def corners(self):
        """The boundary's corners, one row each: a polygon's vertices, and a
        (0, 2) array for every other body."""
        if self.kind == "polygon":
            return self.params["vertices"]
        return np.zeros((0, 2))

    def is_smooth(self):
        """True for bodies accepted on the geometric (partition) route."""
        if self.kind in ("disk", "ellipse", "radial"):
            return True
        if self.kind == "pnorm":
            return self.params["p"] >= 2
        return False

    def _validate_radial_convexity(self):
        pts = self.boundary_points(512)
        edges = np.diff(np.vstack([pts, pts[:1]]), axis=0)
        cross = edges[:-1, 0] * edges[1:, 1] - edges[:-1, 1] * edges[1:, 0]
        scale = np.max(np.abs(cross))
        if np.any(cross < -1e-8 * (1 + scale)):
            raise ValueError("radial samples do not describe a convex body")

    def __repr__(self):
        return f"ConvexBody(kind={self.kind!r})"

