"""Small tests of the benchmark's own oracle and span arithmetic.

Run with ``python3 -m pytest perfbench``; they need numpy and mpmath only.
"""

import os
import sys
import types

import mpmath
import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import oracle  # noqa: E402
import spans  # noqa: E402


def _terms(coeffs, degree):
    """{y-power k: coeff} -> exported list for x^(degree-k) y^k."""
    return [{"exponents": [degree - k, k], "coeff": c} for k, c in coeffs.items()]


# (x^2 + y^2)^2 = 1 and x (x^2 + y^2) = x on the unit circle, so this pair
# reproduces f = 1 + x exactly on the disk's boundary
_EVEN = {0: 1.0, 2: 2.0, 4: 1.0}
_ODD = {0: 1.0, 2: 1.0}


def _disk_error(even):
    pts = oracle.boundary_grid("disk")
    f_ld = 1 + pts[:, 0].astype(oracle.LD)
    vals = oracle.pair_eval([(_terms(even, 4), 4), (_terms(_ODD, 3), 3)], pts)
    return oracle.sup_error(f_ld, vals)


def test_oracle_scores_hand_built_exact_pair_at_float_floor():
    err = _disk_error(_EVEN)
    assert err < 1e-15
    assert not oracle.is_nonexact(err, 2.0)


def test_oracle_flags_injected_perturbation():
    err = _disk_error({**_EVEN, 0: 1.0 + 1e-3})     # off by 1e-3 at (1, 0)
    assert abs(err - 1e-3) < 1e-12
    assert oracle.is_nonexact(err, 2.0)
    assert not oracle.honest(0.98e-3, err, 2.0)
    assert oracle.honest(0.995e-3, err, 2.0)


def test_boundary_grids_lie_on_their_bodies():
    n = oracle.GRID_POINTS
    assert n >= 100_000
    sq = oracle.boundary_grid("square")
    assert np.allclose(np.max(np.abs(sq), axis=1), 1.0, rtol=0, atol=1e-15)
    for v in ((1, 1), (-1, 1), (-1, -1), (1, -1)):
        assert np.any(np.all(sq == v, axis=1)), v
    ell = oracle.boundary_grid("ellipse", axes=(2.0, 1.0))
    assert np.allclose((ell[:, 0] / 2) ** 2 + ell[:, 1] ** 2, 1.0, atol=1e-15)
    pb = oracle.boundary_grid("pnorm", p=4.0)
    assert np.allclose(np.sum(pb ** 4, axis=1), 1.0, atol=1e-14)
    for g in (sq, ell, pb):
        assert g.shape == (n, 2)


def test_homogeneity_check_rejects_wrong_degree():
    with pytest.raises(ValueError):
        oracle.coeff_vector([{"exponents": [2, 1], "coeff": 1.0}], 2)


def test_longdouble_horner_matches_mpmath_at_high_degree():
    rng = np.random.default_rng(7)
    n = 129
    coeffs = {k: float(c) for k, c in
              enumerate(rng.standard_normal(n + 1) * 10.0 ** rng.uniform(0, 10, n + 1))}
    th = rng.uniform(0, 2 * np.pi, 24)
    pts = np.stack([2 * np.cos(th), np.sin(th)], axis=1)
    got = oracle.hom_eval(_terms(coeffs, n), n, pts)
    mpmath.mp.dps = 60
    for (x, y), g in zip(pts, got):
        x, y = mpmath.mpf(float(x)), mpmath.mpf(float(y))
        ref = mpmath.fsum(mpmath.mpf(c) * x ** (n - k) * y ** k
                          for k, c in coeffs.items())
        size = mpmath.fsum(abs(mpmath.mpf(c) * x ** (n - k) * y ** k)
                           for k, c in coeffs.items())
        assert abs(mpmath.mpf(float(g)) - ref) <= 1e-15 * size + abs(ref) * 2e-16


def test_ladder_rules():
    assert oracle.ladder_ok([0.3, 0.2, 0.2])
    assert not oracle.ladder_ok([0.2, 0.3])
    assert oracle.ladder_ok([1e-12, 5e-11])          # both under the floor
    assert not oracle.ladder_ok([0.3, 0.3], strict=True)


def test_disk_mrs_support_closed_form():
    assert oracle.mrs_half_width_disk(1.5) == pytest.approx(2 * np.sqrt(2), rel=1e-15)


def test_self_time_on_synthetic_spans():
    # children cover [1,4] (overlapping), [6,7] and [9,10] (clipped): 5 s
    assert spans.self_time(0.0, 10.0, [(1, 3), (2, 4), (6, 7), (9, 12)]) == 5.0
    assert spans.self_time(0.0, 2.0, []) == 2.0
    assert spans.self_time(0.0, 2.0, [(3, 4)]) == 2.0


class _Clock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


def test_tracer_totals_self_times_counts_and_missing_targets():
    clock = _Clock()
    mod = types.ModuleType("perfbench_fake_layer")

    def inner(dt):
        clock.t += dt

    def outer(dt):
        clock.t += 1.0
        mod.inner(dt)            # called through the module attribute
        mod.inner(dt)
        clock.t += 1.0
        return dt

    mod.inner, mod.outer = inner, outer
    sys.modules[mod.__name__] = mod
    tracer = spans.Tracer(clock=clock)
    try:
        tracer.install([
            ("cli.run", "perfbench_fake_layer:outer", None),
            ("cli.write", "perfbench_fake_layer:inner",
             lambda a, k, r: {"cli.bytes_written": 10}),
            ("unity.lift", "perfbench_fake_layer:no_such_function", None),
        ])
        for p in (0, 1, 2):
            tracer.begin_case(p, "case")
            mod.outer(0.5 * (p + 1))
    finally:
        tracer.uninstall()
        del sys.modules[mod.__name__]
    assert mod.outer is outer and mod.inner is inner
    assert tracer.missing == ["perfbench_fake_layer:no_such_function"]
    per = tracer.per_pass()
    assert per[1]["cli.run_s"] == 4.0 and per[1]["cli.run_self_s"] == 2.0
    assert per[1]["cli.write_s"] == 2.0 and per[1]["cli.bytes_written"] == 20
    got = tracer.metrics([0, 1, 2])
    assert got["cli.run_s"] == 4.0                 # median over the passes
    assert got["unity.lift_s"] is None and got["unity.lift_self_s"] is None


def _outcome(**kw):
    return types.SimpleNamespace(problems=[], dishonest=False, oracle_err=None,
                                 nonexact=False, **kw)


def test_later_pass_inherits_verdict_only_for_identical_result():
    import run
    case = types.SimpleNamespace(name="c")
    first_out = types.SimpleNamespace(dishonest=True, oracle_err=0.5, nonexact=True)
    first = (b"coeffs", np.array([1.0, 2.0]), first_out)

    same = _outcome()
    run._same_as_first(case, b"coeffs", np.array([1.0, 2.0]), first, same)
    assert not same.problems
    assert (same.dishonest, same.oracle_err, same.nonexact) == (True, 0.5, True)

    for fp, public in ((b"other", np.array([1.0, 2.0])),
                       (b"coeffs", np.array([1.0, np.nextafter(2.0, 3.0)])),
                       (b"coeffs", None)):
        out = _outcome()
        run._same_as_first(case, fp, public, first, out)
        assert len(out.problems) == 1
