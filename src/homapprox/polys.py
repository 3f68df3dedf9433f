"""Dense polynomial infrastructure.

Planar homogeneous polynomials as dense coefficient vectors, the package's
one Chebyshev-Gauss node set and samples-to-coefficients transform, its one
Horner lift over graded parts (used for the even-polynomial homogenization
through a supporting line), and the classical off-interval growth bound
(2|x|/a)^n.  A planar polynomial of total degree m is its graded parts: an
(m+1, m+1) array whose row d is the degree-d part's `HomogeneousPoly` vector
(index k = power of y, zero past d).
"""

from __future__ import annotations

import math
import sys
from types import MappingProxyType

import numpy as np
from scipy.fft import dct

from .errors import DimensionError, OddMonomialError, DegreeCapError


def _planar_points(x):
    """x as an array of planar points, one per row (one point may be 1-D)."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    if x.shape[1] != 2:
        raise DimensionError("points must be planar")
    return x


class HomogeneousPoly:
    """Planar homogeneous polynomial sum_k vec[k] x^(degree-k) y^k.

    The dense vector ``vec`` (index k = power of y) is the only storage;
    ``coeffs`` is a read-only view {(degree-k, k): vec[k]} of its nonzero
    entries.
    """

    def __init__(self, vec):
        self.vec = np.array(vec, dtype=float)
        self.vec.setflags(write=False)

    @property
    def degree(self):
        return len(self.vec) - 1

    @property
    def coeffs(self):
        return MappingProxyType({(self.degree - k, k): float(v)
                                 for k, v in enumerate(self.vec) if v != 0.0})

    def __repr__(self):
        return f"HomogeneousPoly({self.vec.tolist()!r})"

    def __call__(self, x):
        # s_k = x s_{k-1} + vec[k] y^k, so s_degree is the polynomial; no
        # division by x or y keeps it exact on both axes
        x = _planar_points(x)
        # contiguous copies: every term reads both columns
        u, v = x[:, 0].copy(), x[:, 1].copy()
        out = np.full(len(u), self.vec[0])
        yk = np.ones(len(u))
        for a in self.vec[1:]:
            yk *= v
            out *= u
            out += a * yk
        return out if len(out) != 1 else float(out[0])

    def multiply(self, other):
        return HomogeneousPoly(np.convolve(self.vec, other.vec))

    def to_json_obj(self):
        c = self.coeffs
        return [{"exponents": list(k), "coeff": c[k]} for k in sorted(c)]

    @classmethod
    def from_json_obj(cls, dim, degree, obj):
        """The polynomial of the terms [{"exponents": [i, j], "coeff": c}]
        that `to_json_obj` writes, each term of degree i + j = degree."""
        if dim != 2:
            raise DimensionError("homogeneous polynomials are planar (dim 2)")
        vec = np.zeros(degree + 1)
        seen = set()
        for term in obj:
            if "exponents" not in term or "coeff" not in term:
                raise ValueError(f"term {term} needs exponents and coeff")
            k = tuple(term["exponents"])
            if len(k) != 2:
                raise DimensionError(f"exponent {k} has wrong length")
            if not all(type(e) is int for e in k):
                raise ValueError(f"exponent {k} is not a pair of integers")
            if sum(k) != degree or min(k) < 0:
                raise ValueError(f"exponent {k} does not sum to {degree}")
            if k in seen:
                raise ValueError(f"exponent {k} is repeated")
            seen.add(k)
            c = term["coeff"]
            # false for nan, inf and an int too large for a float
            finite = isinstance(c, (int, float)) and abs(c) <= sys.float_info.max
            if isinstance(c, bool) or not finite:
                raise ValueError(f"coefficient {c!r} is not a finite number")
            vec[k[1]] = c
        return cls(vec)


def linear_form_power(w, n):
    """<w, x>^n = sum_k C(n,k) w0^(n-k) w1^k x^(n-k) y^k."""
    w = np.asarray(w, dtype=float)
    if w.shape != (2,):
        raise DimensionError("linear forms are planar (length 2)")
    k = np.arange(n + 1)
    binom = np.array([float(math.comb(n, j)) for j in k])
    return HomogeneousPoly(binom * w[0] ** (n - k) * w[1] ** k)


def _times_form(vecs, form):
    """Coefficient vectors (..., L) times forms (..., m): the (..., L + m - 1)
    products, index k = power of y.  One form per row, or one for all rows.
    """
    out = np.zeros(vecs.shape[:-1] + (vecs.shape[-1] + form.shape[-1] - 1,))
    for i in range(form.shape[-1]):
        out[..., i:i + vecs.shape[-1]] += form[..., i, None] * vecs
    return out


def _lift_graded(parts, form):
    """sum_j F^(J-j) P_j for parts P_0, ..., P_J whose degrees step by deg F.

    One Horner pass S <- F S + P_j with the homogeneous form F (one for all
    rows, or one per row of a batch).  P_0 has degree 0 and the output's
    length; each later step reads and writes only the nonzero prefix of S and
    of P_j (a degree-d vector is zero past index d), so P_j may be cut to
    that prefix.  Sums of different lengths J run in lockstep
    along axis 0 of a batch: a part with fewer rows than S advances only the
    leading rows, and the rows past it keep their finished sums.
    """
    parts = iter(parts)
    s = np.array(next(parts), dtype=float)
    deg = 0
    for part in parts:
        live = s[:len(part)] if s.ndim > 1 else s
        prod = _times_form(live[..., :deg + 1], form)
        deg = prod.shape[-1] - 1
        prod += part[..., :deg + 1]
        live[..., :deg + 1] = prod
    return s


def homogenize_even(parts, line, target_degree):
    """Lift an even planar polynomial to H^2_{2n} by padding with <x,w> powers.

    ``parts`` are its graded parts, row d the degree-d part's vector (entries
    past d are not read).  On the line pair {<x,w> = +/-1} the result agrees
    with the polynomial because every inserted factor <x,w>^{2j} equals 1
    there.
    """
    parts = np.asarray(parts, dtype=float)
    if parts.ndim != 2 or parts.shape[0] != parts.shape[1]:
        raise DimensionError("graded parts must be a square array")
    if target_degree % 2 != 0:
        raise ValueError("target degree must be even")
    parts = np.tril(parts)
    rows = np.flatnonzero(parts.any(axis=1))
    if np.any(rows % 2):
        raise OddMonomialError("polynomial has odd-degree monomials")
    degree = int(rows[-1]) if rows.size else 0
    if degree > target_degree:
        raise DegreeCapError(
            f"target degree {target_degree} below polynomial degree {degree}")
    w = np.asarray(line.normal, dtype=float)
    if w.shape != (2,):
        raise DimensionError("homogenization is planar")
    r = min(len(parts), target_degree + 1)
    padded = np.zeros((target_degree + 1, target_degree + 1))
    padded[:r, :r] = parts[:r, :r]
    return HomogeneousPoly(_lift_graded(padded, w))


def cheb_nodes(n):
    """The n Chebyshev-Gauss nodes cos((k + 1/2) pi / n), k = 0, ..., n-1."""
    return np.cos((np.arange(n) + 0.5) * np.pi / n)


def cheb_coeffs(vals):
    """Chebyshev coefficients of the interpolant through values at
    cheb_nodes(n) along the last axis: a DCT-II divided by n, first halved."""
    c = dct(vals, type=2) / np.shape(vals)[-1]
    c[..., 0] *= 0.5
    return c


def growth_bound(n, a, x):
    """Certified off-interval bound (2|x|/a)^n for sup-norm-1 polynomials."""
    if a <= 0:
        raise ValueError("a must be positive")
    if abs(x) <= a:
        raise ValueError("growth bound requires |x| > a")
    return (2.0 * abs(x) / a) ** n


def growth_bound_check(coeffs, a, x):
    """(|p(x)|, bound, ok) for p = sum_k coeffs[k] x^k with ||p||_[-a,a] <= 1."""
    coeffs = np.asarray(coeffs, dtype=float)
    if coeffs.ndim != 1:
        raise DimensionError("growth bound applies to univariate polynomials")
    nonzero = np.flatnonzero(coeffs)
    b = growth_bound(int(nonzero[-1]) if nonzero.size else 0, a, x)
    val = abs(float(np.polynomial.polynomial.polyval(x, coeffs)))
    return val, b, val <= b * (1 + 1e-12)
