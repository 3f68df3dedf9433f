"""Accuracy oracle that does not use the package under test.

Boundary grids come from closed-form parametrizations, polynomials are
evaluated from their exported ``{"exponents", "coeff"}`` lists in numpy
``longdouble`` (Horner in y/x or x/y, whichever ratio is at most 1 in
magnitude), and targets are evaluated in the same extended precision.  Nothing
here calls ``HomPair.__call__``, ``HomogeneousPoly`` or ``ConvexBody``.
"""

from __future__ import annotations

import numpy as np

LD = np.longdouble
GRID_POINTS = 1 << 17        # >= 100k boundary points per grid
EXACT_TOL = 1e-9             # exact targets, relative to max(1, |f|)
AGREE_TOL = 1e-9             # public pair(x) against the oracle, relative
HONESTY_SLACK = 0.01         # report may read at most 1% below the oracle
LADDER_FLOOR = 1e-10         # criterion 7: both errors below it count as equal


def boundary_grid(kind, n=GRID_POINTS, axes=(1.0, 1.0), p=2.0):
    """n boundary points of a 0-symmetric body, in closed form.

    disk and ellipse: (a cos th, b sin th); p-norm ball: the superellipse
    (a sgn(c)|c|^(2/p), b sgn(s)|s|^(2/p)); square [-1,1]^2: uniform along the
    perimeter, with n a multiple of 8 so that the four vertices are nodes.
    """
    a, b = (LD(v) for v in axes)
    if kind == "square":
        if n % 8:
            raise ValueError("square grid needs a multiple of 8 points")
        s = LD(8) * np.arange(n, dtype=LD) / LD(n)      # perimeter parameter
        edge = np.floor(s / 2).astype(int)
        u = s - 2 * edge - 1                            # in [-1, 1)
        one = np.ones_like(u)
        x = np.select([edge == 0, edge == 1, edge == 2], [one, -u, -one], u)
        y = np.select([edge == 0, edge == 1, edge == 2], [u, one, -u], -one)
        return np.stack([x, y], axis=1).astype(float)
    th = LD(2) * LD(np.pi) * np.arange(n, dtype=LD) / LD(n)
    c, s = np.cos(th), np.sin(th)
    if kind in ("disk", "ellipse"):
        x, y = a * c, b * s
    elif kind == "pnorm":
        e = LD(2) / LD(p)
        x = a * np.sign(c) * np.abs(c) ** e
        y = b * np.sign(s) * np.abs(s) ** e
    else:
        raise ValueError(f"no closed-form grid for {kind!r}")
    return np.stack([x, y], axis=1).astype(float)


def coeff_vector(terms, degree):
    """Dense longdouble vector c with h = sum_k c[k] x^(degree-k) y^k.

    Raises ValueError when a monomial is not of total degree ``degree``,
    which is also the parity check for the even/odd members of a pair.
    """
    c = np.zeros(degree + 1, dtype=LD)
    for term in terms:
        ex, ey = term["exponents"]
        if ex + ey != degree or min(ex, ey) < 0:
            raise ValueError(f"monomial x^{ex} y^{ey} in a degree-{degree} "
                             "homogeneous polynomial")
        c[ey] += LD(term["coeff"])
    return c


def hom_eval(terms, degree, pts):
    """Value of the exported homogeneous polynomial at rows of pts."""
    c = coeff_vector(terms, degree)
    x = np.asarray(pts[:, 0], dtype=LD)
    y = np.asarray(pts[:, 1], dtype=LD)
    out = np.zeros(len(x), dtype=LD)
    m = np.abs(x) >= np.abs(y)
    if np.any(m):       # x^n * sum_k c[k] (y/x)^k
        r = y[m] / x[m]
        acc = np.zeros(len(r), dtype=LD)
        for k in range(degree, -1, -1):
            acc = acc * r + c[k]
        out[m] = acc * x[m] ** degree
    if np.any(~m):      # y^n * sum_k c[k] (x/y)^(n-k)
        r = x[~m] / y[~m]
        acc = np.zeros(len(r), dtype=LD)
        for k in range(degree + 1):
            acc = acc * r + c[k]
        out[~m] = acc * y[~m] ** degree
    return out


def pair_eval(pair_terms, pts):
    """h_even + h_odd from [(terms, degree), (terms, degree)]."""
    (te, ne), (to, no) = pair_terms
    return hom_eval(te, ne, pts) + hom_eval(to, no, pts)


def sup_error(f_ld, values):
    """max |f - values| with both in longdouble, returned as a float."""
    return float(np.max(np.abs(f_ld - values)))


def is_nonexact(err, scale):
    """True when err is above the float floor used for exact targets."""
    return err > EXACT_TOL * max(1.0, scale)


def honest(reported, oracle_err, scale):
    """A reported sup error may not read more than 1% below the oracle's."""
    if not is_nonexact(oracle_err, scale):
        return True
    return reported >= (1.0 - HONESTY_SLACK) * oracle_err


def agrees(public, reference):
    """Public evaluation matches the oracle to AGREE_TOL relative."""
    ref = np.asarray(reference, dtype=LD)
    scale = max(1.0, float(np.max(np.abs(ref))))
    dev = float(np.max(np.abs(np.asarray(public, dtype=LD) - ref)))
    return dev <= AGREE_TOL * scale, dev / scale


def ladder_ok(errs, strict=False):
    """Non-increasing degree ladder with the criterion-7 floor.

    strict=True is criterion 6's ladder: every step must decrease.
    """
    for a, b in zip(errs, errs[1:]):
        if strict:
            if not b < a:
                return False
        elif not (b <= a * (1 + 1e-9) or (a < LADDER_FLOOR and b < LADDER_FLOOR)):
            return False
    return True


def mrs_half_width_disk(lam):
    """Closed-form MRS support [-b, b] for the disk weight (1+t^2)^(-1/2).

    The endpoint condition (lam/pi) int_{-b}^{b} t Q'(t)/sqrt(b^2-t^2) dt = 1
    with Q' = t/(1+t^2) integrates to lam (1 - 1/sqrt(1+b^2)) = 1.
    """
    return float(np.sqrt((lam / (lam - 1.0)) ** 2 - 1.0))
