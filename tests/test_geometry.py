"""Convex-body primitives: gauge, supporting lines, slope parametrization."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.interpolate import CubicSpline

from homapprox import (BoundaryPointError, ConfigError, ConvexBody,
                       DimensionError, HomogeneousPoly)
from homapprox.cli import _build_body
from homapprox.geometry import SupportLine
from homapprox.potential import check_weight


def bodies():
    return {
        "disk": ConvexBody.disk(),
        "ellipse": ConvexBody.ellipse(2.0, 1.0),
        "square": ConvexBody.square(),
        "p4": ConvexBody.pnorm_ball(4.0),
    }


def test_gauge_values():
    d = ConvexBody.disk()
    assert d.gauge(np.array([[3.0, 4.0]]))[0] == pytest.approx(5.0)
    e = ConvexBody.ellipse(2.0, 1.0)
    assert e.gauge(np.array([[2.0, 0.0]]))[0] == pytest.approx(1.0)
    assert e.gauge(np.array([[0.0, 2.0]]))[0] == pytest.approx(2.0)
    s = ConvexBody.square()
    assert s.gauge(np.array([[0.5, -1.0]]))[0] == pytest.approx(1.0)
    p = ConvexBody.pnorm_ball(4.0)
    assert p.gauge(np.array([[1.0, 1.0]]))[0] == pytest.approx(2.0 ** 0.25)


def test_gauge_homogeneity():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((100, 2))
    for body in bodies().values():
        g1 = body.gauge(x)
        g3 = body.gauge(3.0 * x)
        assert np.max(np.abs(g3 - 3.0 * g1)) < 1e-10 * np.max(g1)
        assert np.max(np.abs(body.gauge(-x) - g1)) < 1e-12 * np.max(g1)


def _gauge_bisect(body, x):
    """Bisection-on-ray oracle for the gauge (cross-check, scalar point)."""
    x = np.asarray(x, dtype=float)
    nx = np.linalg.norm(x)
    if nx == 0:
        return 0.0
    lo, hi = 0.0, 1.0
    while body.gauge(x / hi) > 1:
        hi *= 2
        if hi > 1e18:
            raise BoundaryPointError("ray never enters the body")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if body.gauge(x / mid) > 1:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-13 * hi:
            break
    return 0.5 * (lo + hi)


def test_gauge_bisect_matches_analytic():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((50, 2))
    for body in bodies().values():
        g = body.gauge(x)
        gb = np.array([_gauge_bisect(body, p) for p in x])
        assert np.max(np.abs(g - gb)) < 1e-10 * np.max(g)


def test_dimension_mismatch_rejected():
    with pytest.raises(DimensionError):
        ConvexBody.disk().gauge(np.array([[1.0, 2.0, 3.0]]))


def test_boundary_points_on_boundary_and_deterministic():
    for body in bodies().values():
        pts = body.boundary_points(256)
        assert np.max(np.abs(body.gauge(pts) - 1.0)) < 1e-9
        again = body.boundary_points(256)
        assert np.array_equal(pts, again)
        seeded = body.boundary_points(64, seed=7)
        assert np.max(np.abs(body.gauge(seeded) - 1.0)) < 1e-9
        assert np.array_equal(seeded, body.boundary_points(64, seed=7))


def test_support_line_supports():
    rng = np.random.default_rng(2)
    for body in bodies().values():
        pts = body.boundary_points(32, seed=3)
        for p in pts:
            line = body.support_line(p)
            w = line.normal
            assert np.dot(p, w) == pytest.approx(1.0, abs=1e-8)
            # whole body on the <= 1 side
            sample = body.boundary_points(200)
            assert np.max(sample @ w) <= 1.0 + 1e-8


def test_support_lines_of_a_batch_match_single_lines():
    """support_line over (..., 2) points gives, bit for bit, each point's own
    line, frame and foot, and rejects the batch if one point is off the
    boundary."""
    for body in bodies().values():
        pts = body.boundary_points(24, seed=5).reshape(4, 6, 2)
        lines = body.support_line(pts)
        e, foot = lines.tangent_frame(), lines.foot()
        assert lines.normal.shape == e.shape == foot.shape == (4, 6, 2)
        for idx in np.ndindex(4, 6):
            line = body.support_line(pts[idx])
            assert np.array_equal(line.normal, lines.normal[idx])
            assert np.array_equal(line.tangent_frame(), e[idx])
            assert np.array_equal(line.foot(), foot[idx])
        pts[2, 3] *= 1.01
        with pytest.raises(BoundaryPointError, match="not on the boundary"):
            body.support_line(pts)


def test_support_line_frame():
    line = SupportLine(normal=np.array([1.0, 0.0]))
    e = line.tangent_frame()
    assert np.allclose(e, [0.0, 1.0]) or np.allclose(e, [0.0, -1.0])
    assert np.allclose(line.foot(), [1.0, 0.0])


def test_slope_points_canonical_branch():
    for body in bodies().values():
        t = np.linspace(-40.0, 40.0, 101)
        pts = body.slope_points(t)
        assert np.all(pts[:, 0] > 0)
        assert np.max(np.abs(body.gauge(pts) - 1.0)) < 1e-9
        assert np.max(np.abs(pts[:, 1] / pts[:, 0] - t)) < 1e-7 * (1 + np.max(np.abs(t)))


def test_weight_is_x_coordinate():
    for body in bodies().values():
        w = body.weight()
        t = np.linspace(-25.0, 25.0, 301)
        pts = body.slope_points(t)
        assert np.max(np.abs(w.W(t) - pts[:, 0])) < 1e-10


def test_weight_rho_is_vertical_extent():
    assert ConvexBody.disk().weight().rho == pytest.approx(1.0)
    assert ConvexBody.ellipse(2.0, 1.0).weight().rho == pytest.approx(1.0)
    assert ConvexBody.ellipse(1.0, 3.0).weight().rho == pytest.approx(3.0)
    assert ConvexBody.square().weight().rho == pytest.approx(1.0)


def test_polygon_weight_handles_scalars_and_arrays():
    w = ConvexBody.square().weight()
    assert float(w.W(0.5)) == pytest.approx(1.0)
    assert float(w.W(2.0)) == pytest.approx(0.5)
    out = w.W(np.array([0.0, 1.0, -4.0]))
    assert out.shape == (3,)
    assert out[2] == pytest.approx(0.25)


def test_delta_positive_and_scale_covariant():
    for body in bodies().values():
        assert body.delta() > 0
    assert ConvexBody.disk().delta() == pytest.approx(1.0)


def test_is_smooth_classification():
    assert ConvexBody.disk().is_smooth()
    assert ConvexBody.ellipse(2.0, 1.0).is_smooth()
    assert ConvexBody.pnorm_ball(4.0).is_smooth()
    assert _radial_body().is_smooth()
    assert not ConvexBody.square().is_smooth()
    assert not ConvexBody.pnorm_ball(1.0).is_smooth()
    assert not ConvexBody.pnorm_ball(1.5).is_smooth()


def test_delta_is_largest_boundary_radius():
    """delta_K against 100k boundary angles for every kind (the polygons'
    vertices lie on the angle grid), and the unit disk's gauge and gradient
    are the Euclidean norm and x / |x| bit for bit."""
    theta = np.linspace(0, 2 * np.pi, 100_000, endpoint=False)
    for body in (ConvexBody.disk(), ConvexBody.disk(2.0),
                 ConvexBody.ellipse(2.0, 1.0), ConvexBody.square(0.5),
                 ConvexBody.pnorm_ball(1.0, (2.0, 0.5)),
                 ConvexBody.pnorm_ball(4.0, (2.0, 0.5)), _radial_body()):
        radius = np.max(body.boundary_at(theta)[1])
        assert body.delta() == pytest.approx(radius, rel=1e-9), body
    x = np.random.default_rng(6).standard_normal((1000, 2))
    disk = ConvexBody.disk()
    assert np.array_equal(disk.gauge(x), np.linalg.norm(x, axis=-1))
    assert np.array_equal(disk.gauge_gradient(x),
                          x / np.linalg.norm(x, axis=-1, keepdims=True))


def test_radial_samples_body():
    th = np.linspace(0, np.pi, 64, endpoint=False)
    r = 1.0 + 0.1 * np.cos(2 * th)
    body = ConvexBody.radial_samples(th, r)
    pts = body.boundary_points(100)
    assert np.max(np.abs(body.gauge(pts) - 1.0)) < 1e-8
    assert body.is_smooth()


def test_from_config_round_trip():
    # the CLI's reader of a config body section
    b = _build_body({"type": "ellipse", "semi_axes": [2, 1]}, "/body")
    assert b.kind == "ellipse"
    b = _build_body({"type": "square"}, "/body")
    assert b.kind == "polygon"
    with pytest.raises(ConfigError):
        _build_body({"type": "blob"}, "/body")


def test_polygon_rejects_asymmetric_and_nonconvex_outlines():
    with pytest.raises(ValueError, match="not centrally symmetric"):
        ConvexBody.polygon([[1, 0], [0, 1], [-1, 0], [0, -2]])
    # the half-planes of the star's edges put its tips at gauge 3
    star = [[2, 0], [0.5, 0.5], [0, 2], [-0.5, 0.5],
            [-2, 0], [-0.5, -0.5], [0, -2], [0.5, -0.5]]
    with pytest.raises(ValueError, match="not convex"):
        ConvexBody.polygon(star)
    # a vertex on the line of its neighbours' edge leaves the outline convex
    square = ConvexBody.polygon([[1, 1], [-1, 1], [-1, 0], [-1, -1],
                                 [1, -1], [1, 0]])
    pts = ConvexBody.square().boundary_points(64)
    assert np.allclose(square.gauge(pts), 1.0, rtol=0, atol=1e-15)


@pytest.mark.parametrize("vertices, message", [
    ([[1, 1], [1, 1], [-1, 1], [-1, -1], [-1, -1], [1, -1]],
     r"repeats vertex \(-1, -1\)"),
    ([[1, 0], [2, 0], [0, 1], [-1, 0], [-2, 0], [0, -1]],
     r"vertices \(1, 0\) and \(2, 0\) lie on one ray"),
], ids=["repeated", "one-ray"])
def test_polygon_names_vertices_on_one_ray(vertices, message):
    """The edge solve would fail as a singular matrix: the fault is named."""
    with pytest.raises(ValueError, match=message):
        ConvexBody.polygon(vertices)


def test_corners_are_polygon_vertices_only():
    # counter-clockwise by angle from -pi
    assert np.array_equal(ConvexBody.square(0.5).corners(),
                          [[-0.5, -0.5], [0.5, -0.5], [0.5, 0.5], [-0.5, 0.5]])
    for body in (ConvexBody.disk(), ConvexBody.ellipse(2.0, 1.0),
                 ConvexBody.pnorm_ball(4.0), _radial_body()):
        assert body.corners().shape == (0, 2)


def test_corners_are_read_only_and_the_bodys_own():
    """A write into corners() cannot move the weight's kinks, and no two
    bodies share one corners array."""
    body = ConvexBody.square()
    with pytest.raises(ValueError):
        body.corners()[0] = [5, 1]
    assert body.weight().kinks == (-1.0, 1.0)
    assert body.corners() is not ConvexBody.square().corners()
    assert ConvexBody.disk().corners() is not \
        ConvexBody.ellipse(2.0, 1.0).corners()


def _radial_samples(amp=0.1, phase=0.0, samples=64):
    th = np.linspace(0, np.pi, samples, endpoint=False)
    return th, 1.0 + amp * np.cos(2 * th + phase)


def _radial_body(amp=0.1, phase=0.0, samples=64):
    return ConvexBody.radial_samples(*_radial_samples(amp, phase, samples))


def _radial_interp(amp=0.1, phase=0.0, samples=64):
    """r(theta) of _radial_body, built apart from radial_samples: the
    2 pi-periodic cubic spline through the samples and their antipodes."""
    th, r = _radial_samples(amp, phase, samples)
    ang = np.concatenate([th, th + np.pi, th[:1] + 2 * np.pi])
    return CubicSpline(ang, np.concatenate([r, r, r[:1]]), bc_type="periodic")


def test_radial_family_builds_and_passes_check_weight():
    """Every body r = 1 + a cos(2 theta + phi) of the property test's family,
    on a fixed grid of (a, phi) plus a draw that a C^1 interpolant made
    non-convex, is accepted and its weight passes check_weight."""
    grid = [(a, phi) for a in np.linspace(0, 0.1, 21)
            for phi in np.linspace(0, np.pi, 33)]
    for amp, phase in grid + [(0.09765625, 1.328125)]:
        assert check_weight(_radial_body(amp, phase).weight()).ok, (amp, phase)


def test_radial_samples_of_an_ellipse_follow_its_gauge():
    """The radii of the ellipse (2, 1) at 64 angles give a body whose gauge
    is the ellipse's within 5e-6 relative, and whose weight passes."""
    ellipse = ConvexBody.ellipse(2.0, 1.0)
    th = np.linspace(0, np.pi, 64, endpoint=False)
    body = ConvexBody.radial_samples(th, ellipse.boundary_at(th)[1])
    x = np.random.default_rng(8).standard_normal((2000, 2))
    assert np.max(np.abs(body.gauge(x) / ellipse.gauge(x) - 1)) < 5e-6
    assert check_weight(body.weight()).ok


def test_radial_samples_reject_a_non_convex_outline():
    """r = 1 + a cos 2 theta has curvature form (1 - a)(1 - 5a) at pi/2,
    negative for a = 0.25."""
    with pytest.raises(ValueError, match="not describe a convex body"):
        _radial_body(0.25)


def _zonogon(angles, lengths):
    """Centrally symmetric hexagon: the Minkowski sum of three segments [-g, g]."""
    g = np.array(lengths)[:, None] * np.stack([np.cos(angles), np.sin(angles)], axis=-1)
    half = [-g[0] - g[1] - g[2], g[0] - g[1] - g[2], g[0] + g[1] - g[2]]
    return ConvexBody.polygon(half + [-v for v in half])


def test_weight_qp_matches_closed_forms():
    """Q' of every body weight against a formula written from the shape alone."""
    t = np.linspace(-30.0, 30.0, 6001)
    cases = [(ConvexBody.disk(), t / (1 + t ** 2))]
    for a, b in ((2.0, 1.0), (1.0, 3.0)):
        cases.append((ConvexBody.ellipse(a, b), (t / b ** 2) / (1 / a ** 2 + t ** 2 / b ** 2)))
    for a, b in ((1.0, 1.0), (2.0, 0.5)):
        p = 4.0
        cases.append((ConvexBody.pnorm_ball(p, (a, b)),
                      np.sign(t) * np.abs(t) ** (p - 1) / b ** p
                      / (a ** -p + np.abs(t) ** p / b ** p)))
    for body, ref in cases:
        qp = body.weight().Qp(t)
        assert np.max(np.abs(qp - ref)) < 1e-13, body

    # square: gauge((1, t)) = max(1, |t|), so Q' is 0 inside the kinks, 1/t beyond
    off = np.abs(np.abs(t) - 1.0) > 1e-9
    ref = 1.0 / np.where(np.abs(t) < 1, np.inf, t)
    qp = ConvexBody.square().weight().Qp(t)
    assert np.max(np.abs(qp - ref)[off]) == 0.0

    # radial: Q = log sqrt(1+t^2) - log r(atan t), knots of the interpolant included
    body = _radial_body()
    interp = _radial_interp()
    theta = np.arctan(t)
    ref = t / (1 + t ** 2) - interp.derivative()(theta) / (interp(theta) * (1 + t ** 2))
    qp = body.weight().Qp(t)
    assert np.max(np.abs(qp - ref)) < 1e-13


def test_weight_rho_kinks_and_provenance():
    hexagon = ConvexBody.polygon([(2.0, 1.0), (0.0, 1.5), (-1.0, 1.0),
                                  (-2.0, -1.0), (0.0, -1.5), (1.0, -1.0)])
    radial = _radial_body()
    expected = [
        (ConvexBody.disk(2.0), 2.0, ()),
        (ConvexBody.ellipse(1.0, 3.0), 3.0, ()),
        (ConvexBody.pnorm_ball(4.0, (2.0, 0.5)), 0.5, ()),
        (ConvexBody.pnorm_ball(1.0, (2.0, 0.5)), 0.5, (0.0,)),
        (ConvexBody.square(0.5), 0.5, (-1.0, 1.0)),
        (hexagon, 1.5, (-1.0, 0.5)),
        (radial, float(_radial_interp()(np.pi / 2)), ()),
    ]
    for body, rho, kinks in expected:
        w = body.weight()
        assert w.rho == pytest.approx(rho, rel=1e-14), body
        assert w.kinks == pytest.approx(kinks, rel=1e-14), body
        assert check_weight(w).ok, body


def test_gauge_gradient_vectorized_matches_single_points():
    rng = np.random.default_rng(4)
    x = rng.standard_normal((3, 5, 2))
    for body in list(bodies().values()) + [_radial_body()]:
        grad = body.gauge_gradient(x)
        assert grad.shape == x.shape
        single = np.array([body.gauge_gradient(p) for p in x.reshape(-1, 2)])
        assert np.array_equal(grad.reshape(-1, 2), single)
    # at a vertex the tie goes to the lower edge index (edges in CCW order)
    corners = np.array([[1.0, 1.0], [-1.0, 1.0], [-1.0, -1.0], [1.0, -1.0]])
    assert np.array_equal(ConvexBody.square().gauge_gradient(corners),
                          [[1.0, 0.0], [0.0, 1.0], [0.0, -1.0], [0.0, -1.0]])


@st.composite
def planar_bodies(draw):
    kind = draw(st.sampled_from(["disk", "ellipse", "pnorm", "polygon", "radial"]))
    size = st.floats(0.3, 3.0)
    if kind == "disk":
        return ConvexBody.disk(draw(size))
    if kind == "ellipse":
        return ConvexBody.ellipse(draw(size), draw(size))
    if kind == "pnorm":
        return ConvexBody.pnorm_ball(draw(st.floats(1.0, 8.0)), (draw(size), draw(size)))
    if kind == "polygon":
        start = draw(st.floats(0.0, np.pi))
        gaps = [draw(st.floats(0.3, 1.2)) for _ in range(2)]
        angles = start + np.cumsum([0.0] + gaps)
        return _zonogon(angles, [draw(st.floats(0.2, 1.5)) for _ in range(3)])
    return _radial_body(draw(st.floats(0.0, 0.1)), draw(st.floats(0.0, np.pi)))


@given(planar_bodies(), st.integers(1, 24),
       st.lists(st.floats(-200.0, 200.0), min_size=1, max_size=16),
       st.integers(0, 2 ** 31))
@settings(max_examples=60, deadline=None)
def test_weight_identity_property(body, n, ts, seed):
    """h(x(t), y(t)) = W(t)^n p(t) on the slope branch, and a_n rho^n at (0, rho)."""
    t = np.array(ts)
    w = body.weight()
    pts = body.slope_points(t)
    assert np.array_equal(w.W(t), pts[:, 0])

    a = np.random.default_rng(seed).standard_normal(n + 1)
    h = HomogeneousPoly(a)
    ref = w.W(t) ** n * np.polynomial.polynomial.polyval(t, a)
    # rounding is relative to the sum of the terms' sizes, not to their sum
    size = HomogeneousPoly(np.abs(a))(np.abs(pts))
    assert np.all(np.abs(h(pts) - ref) <= 1e-13 * (n + 1) * size)
    top = h(np.array([0.0, w.rho]))
    assert top == pytest.approx(a[n] * w.rho ** n, rel=1e-13, abs=1e-300)
