"""Smooth partition of unity on lattice cells and sphere patches."""

import itertools

import numpy as np
import pytest

from homapprox.partition import (g_odd, gstar, g_1d, g_k, active_indices,
                                 anchor_directions, cube_pair_bump,
                                 partition_sum_and_overlap, sphere_patches)


def test_g_odd_shape():
    x = np.linspace(-2, 2, 401)
    y = g_odd(x)
    assert np.allclose(g_odd(-x), -y)
    assert np.all(y[x >= 0.5] == -1.0)
    assert np.all(y[x <= -0.5] == 1.0)
    assert np.all(np.diff(y) <= 1e-12)
    assert g_odd(np.array([0.0]))[0] == 0.0


def test_gstar_plateaus():
    assert np.all(gstar(np.linspace(-1, 1, 41)) == 1.0)
    assert np.all(gstar(np.linspace(3, 5, 11)) == 0.0)
    assert gstar(np.array([1.5]))[0] == pytest.approx(0.75)
    assert gstar(np.array([2.5]))[0] == pytest.approx(0.25)
    x = np.linspace(-4, 4, 801)
    assert np.allclose(gstar(x), gstar(-x))


def test_g_1d_telescopes():
    x = np.linspace(-10, 10, 2001)
    total = sum(g_1d(k, x) for k in range(4))
    assert np.max(np.abs(total - 1.0)) < 1e-14


@pytest.mark.parametrize("d,h", [(1, 1.0), (1, 0.5), (2, 0.5), (2, 0.1),
                                 (3, 0.5)])
def test_partition_sums_to_one(d, h):
    rng = np.random.default_rng(5)
    pts = rng.uniform(-4, 4, size=(2000, d))
    sums, overlap = partition_sum_and_overlap(pts, h)
    assert np.max(np.abs(sums - 1.0)) < 1e-12
    assert np.max(overlap) <= 2 ** d


@pytest.mark.parametrize("d,h", [(1, 0.035), (1, 0.37), (2, 0.1), (2, 1.0),
                                 (3, 0.37)])
def test_partition_sum_matches_direct_sum_over_index_boxes(d, h):
    """partition_sum_and_overlap equals the sum of g_k over every index box k
    in {0, ..., K}^d that reaches the points, to 1e-15, and its overlap is
    the number of boxes with g_k > 0 there.  g_k takes the points as rows, in
    1-D as one flat array, and one point as one vector."""
    rng = np.random.default_rng(19)
    pts = rng.uniform(-2.0, 2.0, size=(300, d))
    # g_{k_j}(6 x_j / h) vanishes where 4 k_j - 3 >= 6 |x_j| / h
    kmax = int(np.ceil((12.0 / h + 3.0) / 4.0))
    total = np.zeros(len(pts))
    count = np.zeros(len(pts), dtype=int)
    for k in itertools.product(range(kmax + 1), repeat=d):
        vals = g_k(k, h, pts[:, 0] if d == 1 else pts)
        assert g_k(k, h, pts[0]) == vals[0]
        total += vals
        count += vals > 0
    sums, overlap = partition_sum_and_overlap(pts, h)
    assert np.max(np.abs(sums - total)) <= 1e-15
    assert np.array_equal(overlap, count)


@pytest.mark.parametrize("d,h", [(1, 1.0), (2, 0.5), (3, 0.5)])
def test_active_count_bound(d, h):
    n = len(active_indices(h, d))
    assert 0 < n <= 8 ** d / (2 * h ** d)


def test_g_k_support():
    # index 0 covers the unit sphere slab; far cells vanish there
    x = np.array([[1.0, 0.0], [0.0, -1.0]])
    h = 0.5
    assert np.all(g_k((0, 0), h, x) >= 0)
    far = tuple(12 for _ in range(2))
    assert np.all(g_k(far, h, x) == 0.0)
    assert g_k((0, 0), h, np.zeros((0, 2))).shape == (0,)


def test_sphere_patches_cover_and_antipodal():
    h = 0.5
    patches = sphere_patches(h, 2)
    th = np.linspace(0, 2 * np.pi, 733, endpoint=False)
    u = np.stack([np.cos(th), np.sin(th)], axis=1)
    total = np.zeros(len(u))
    for offsets in patches:
        b = cube_pair_bump(u, h, offsets)
        assert np.all(b >= 0)
        # antipodal symmetry of each patch bump
        assert np.max(np.abs(cube_pair_bump(-u, h, offsets) - b)) < 1e-14
        total += b
    assert np.max(np.abs(total - 1.0)) < 1e-12


def test_patch_anchor_is_unit_and_in_support():
    h = 0.5
    for offsets in sphere_patches(h, 2):
        a = anchor_directions(offsets * h / 6)
        assert np.hypot(*a) == pytest.approx(1.0)
        assert cube_pair_bump(a[None, :], h, offsets)[0] > 0
        assert cube_pair_bump(np.zeros((0, 2)), h, offsets).shape == (0,)


# --------------------------------------------------- loop references
# The per-cell loops that the array code in homapprox.partition replaced.
# They run the same arithmetic in the same order, so the array code must
# match them exactly, row order included.

def _support_1d_ref(k, h):
    if k == 0:
        return 0.0, h / 2.0
    return max(0.0, (4 * k - 3) * h / 6.0), (4 * k + 3) * h / 6.0


def _active_indices_ref(h, d):
    kmax = int(np.floor((6.0 / h + 3.0) / 4.0)) + 1
    out = []
    for k in itertools.product(range(kmax + 1), repeat=d):
        lo2 = hi2 = 0.0
        for kj in k:
            lo, hi = _support_1d_ref(kj, h)
            lo2 += lo * lo
            hi2 += hi * hi
        if lo2 <= 1.0 <= hi2:
            out.append(k)
    return out


def _sphere_patches_ref(h, d):
    offsets = []
    for k in _active_indices_ref(h, d):
        nz = [j for j, kj in enumerate(k) if kj > 0]
        for tail in itertools.product((1, -1), repeat=len(nz) - 1):
            signs = np.ones(d, dtype=int)
            signs[nz[1:]] = tail
            offsets.append(4 * np.array(k) * signs)
    return np.array(offsets, dtype=float)


def _partition_sum_and_overlap_ref(points, h):
    x = np.atleast_2d(np.asarray(points, dtype=float))
    n, d = x.shape
    xi = 6.0 * np.abs(x) / h
    total = np.ones(n)
    counts = np.ones(n)
    for j in range(d):
        v = xi[:, j]
        base = np.round(v / 4.0).astype(int)
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


def _g_k_ref(k, h, x):
    x = np.atleast_2d(np.asarray(x, dtype=float))
    vals = np.ones(x.shape[0])
    for j, kj in enumerate(k):
        vals = vals * g_1d(kj, 6.0 * x[:, j] / h)
    return vals


_MESHES = (1.0, 0.5, 0.37, 0.35, 0.175, 0.1, 0.035)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_active_indices_and_patches_match_loop_reference(d):
    for h in _MESHES:
        ref = np.array(_active_indices_ref(h, d))
        got = active_indices(h, d)
        assert got.dtype.kind == "i" and got.shape == ref.shape
        assert np.array_equal(got, ref)
        ref = _sphere_patches_ref(h, d)
        got = sphere_patches(h, d)
        assert got.dtype == ref.dtype and got.shape == ref.shape
        assert np.array_equal(got, ref)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_partition_sum_and_g_k_match_loop_reference(d):
    pts = np.random.default_rng(23).uniform(-4.0, 4.0, size=(20000, d))
    for h in (1.0, 0.37, 0.1, 0.035):
        sums, overlap = partition_sum_and_overlap(pts, h)
        ref_sums, ref_overlap = _partition_sum_and_overlap_ref(pts, h)
        assert np.array_equal(sums, ref_sums)
        assert np.array_equal(overlap, ref_overlap)
        for k in [(0,) * d, (1,) * d, tuple(range(d)), (3,) + (0,) * (d - 1)]:
            assert np.array_equal(g_k(k, h, pts), _g_k_ref(k, h, pts))
            assert g_k(k, h, pts[7]) == _g_k_ref(k, h, pts[7])[0]
        if d == 1:
            assert np.array_equal(g_k(2, h, pts[:, 0]), _g_k_ref((2,), h, pts))


def test_zero_cell_on_the_sphere_is_a_value_error():
    # the zero cell [-h/2, h/2]^d reaches the unit sphere once d h^2 >= 4
    assert not np.any(active_indices(1.0, 4)[0])
    with pytest.raises(ValueError, match="d h\\^2 >= 4"):
        sphere_patches(1.0, 4)

