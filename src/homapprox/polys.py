"""Dense polynomial infrastructure.

Planar homogeneous polynomials as dense coefficient vectors, low-degree
monomial-form polynomials with exponent-tuple coefficient maps, the package's
one Chebyshev-Gauss node set and samples-to-coefficients transform, its one
Horner lift over graded parts (used for the even-monomial homogenization
through a supporting line), and the classical off-interval growth bound
(2|x|/a)^n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from types import MappingProxyType

import numpy as np
from scipy.fft import dct

from .errors import DimensionError, OddMonomialError, DegreeCapError


def _clean(coeffs):
    return {k: float(v) for k, v in coeffs.items() if v != 0.0}


def _eval_table(exps, coeffs, x, chunk=4096):
    """Evaluate sum_j c_j * prod x^exps_j at rows of x."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    if exps.size == 0:
        return np.zeros(x.shape[0])
    out = np.empty(x.shape[0])
    for lo in range(0, x.shape[0], chunk):
        xs = x[lo:lo + chunk]
        monos = np.prod(xs[:, None, :] ** exps[None, :, :], axis=2)
        out[lo:lo + chunk] = monos @ coeffs
    return out


class HomogeneousPoly:
    """Planar homogeneous polynomial sum_k vec[k] x^(degree-k) y^k.

    The dense vector ``vec`` (index k = power of y) is the only storage;
    ``coeffs`` is a read-only view {(degree-k, k): vec[k]} of its nonzero
    entries.
    """

    dim = 2

    def __init__(self, dim, degree, coeffs=None):
        if dim != 2:
            raise DimensionError("homogeneous polynomials are planar (dim 2)")
        vec = np.zeros(degree + 1)
        for k, v in (coeffs or {}).items():
            if len(k) != 2:
                raise DimensionError(f"exponent {k} has wrong length")
            if sum(k) != degree or min(k) < 0:
                raise ValueError(f"exponent {k} does not sum to {degree}")
            vec[k[1]] = v
        vec.setflags(write=False)
        self.vec = vec

    @classmethod
    def from_vector(cls, vec):
        """The polynomial sum_k vec[k] x^(len(vec)-1-k) y^k."""
        hp = cls.__new__(cls)
        hp.vec = np.array(vec, dtype=float)
        hp.vec.setflags(write=False)
        return hp

    @property
    def degree(self):
        return len(self.vec) - 1

    @property
    def coeffs(self):
        return MappingProxyType({(self.degree - k, k): float(v)
                                 for k, v in enumerate(self.vec) if v != 0.0})

    def __repr__(self):
        return f"HomogeneousPoly(2, {self.degree}, {dict(self.coeffs)!r})"

    def __call__(self, x):
        # s_k = x s_{k-1} + vec[k] y^k, so s_degree is the polynomial; no
        # division by x or y keeps it exact on both axes
        x = np.atleast_2d(np.asarray(x, dtype=float))
        if x.shape[1] != 2:
            raise DimensionError("points must be planar")
        # contiguous copies: every term reads both columns
        u, v = x[:, 0].copy(), x[:, 1].copy()
        out = np.full(len(u), self.vec[0])
        yk = np.ones(len(u))
        for a in self.vec[1:]:
            yk *= v
            out *= u
            out += a * yk
        return out if out.shape[0] > 1 else float(out[0])

    def add(self, other):
        if other.degree != self.degree:
            raise DimensionError("mismatched degree")
        return HomogeneousPoly.from_vector(self.vec + other.vec)

    def scale(self, a):
        return HomogeneousPoly.from_vector(a * self.vec)

    def multiply(self, other):
        return HomogeneousPoly.from_vector(np.convolve(self.vec, other.vec))

    def to_json_obj(self):
        c = self.coeffs
        return [{"exponents": list(k), "coeff": c[k]} for k in sorted(c)]

    @classmethod
    def from_json_obj(cls, dim, degree, obj):
        return cls(dim, degree,
                   {tuple(e["exponents"]): e["coeff"] for e in obj})

    @classmethod
    def zero(cls, dim, degree):
        return cls(dim, degree)


@dataclass(frozen=True)
class DensePoly:
    """Polynomial of bounded total degree in monomial form, exponent-tuple storage."""

    dim: int
    coeffs: dict = field(default_factory=dict)

    def __post_init__(self):
        for k in self.coeffs:
            if len(k) != self.dim:
                raise DimensionError(f"exponent {k} has wrong length")
        object.__setattr__(self, "coeffs", _clean(self.coeffs))

    @property
    def degree(self):
        return max((sum(k) for k in self.coeffs), default=0)

    def _table(self):
        keys = sorted(self.coeffs)
        exps = np.array(keys, dtype=float).reshape(len(keys), self.dim)
        vals = np.array([self.coeffs[k] for k in keys])
        return exps, vals

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        if self.dim == 1 and x.ndim <= 1:
            x = np.atleast_1d(x)[:, None]
        exps, vals = self._table()
        out = _eval_table(exps, vals, np.atleast_2d(x))
        return out if out.shape[0] > 1 else float(out[0])

    def is_even(self):
        return all(sum(k) % 2 == 0 for k in self.coeffs)


def linear_form_power(w, n):
    """<w, x>^n = sum_k C(n,k) w0^(n-k) w1^k x^(n-k) y^k."""
    w = np.asarray(w, dtype=float)
    if w.shape != (2,):
        raise DimensionError("linear forms are planar (length 2)")
    k = np.arange(n + 1)
    binom = np.array([float(math.comb(n, j)) for j in k])
    return HomogeneousPoly.from_vector(binom * w[0] ** (n - k) * w[1] ** k)


def _times_form(vecs, form):
    """Coefficient vectors (..., L) times forms (..., m): the (..., L + m - 1)
    products, index k = power of y.  One form per row, or one for all rows.
    """
    out = np.zeros(vecs.shape[:-1] + (vecs.shape[-1] + form.shape[-1] - 1,))
    for i in range(form.shape[-1]):
        out[..., i:i + vecs.shape[-1]] += form[..., i, None] * vecs
    return out


def _lift_graded(parts, form, start=0):
    """sum_j F^(J-j) P_j for parts P_0, ..., P_J whose degrees step by deg F.

    One Horner pass S <- F S + P_j with the homogeneous form F (one for all
    rows, or one per row of a batch).  P_0 has degree `start` and the
    output's length; each later step reads and writes only the nonzero
    prefix of S and of P_j (a degree-d vector is zero past index d), so P_j
    may be cut to that prefix.  Sums of different lengths J run in lockstep
    along axis 0 of a batch: a part with fewer rows than S advances only the
    leading rows, and the rows past it keep their finished sums.
    """
    parts = iter(parts)
    s = np.array(next(parts), dtype=float)
    deg = start
    for part in parts:
        live = s[:len(part)] if s.ndim > 1 else s
        prod = _times_form(live[..., :deg + 1], form)
        deg = prod.shape[-1] - 1
        prod += part[..., :deg + 1]
        live[..., :deg + 1] = prod
    return s


def homogenize_even(p, line, target_degree):
    """Lift an even planar DensePoly to H^2_{2n} by padding with <x,w> powers.

    On the line pair {<x,w> = +/-1} the result agrees with p because every
    inserted factor <x,w>^{2j} equals 1 there.
    """
    if target_degree % 2 != 0:
        raise ValueError("target degree must be even")
    if not p.is_even():
        raise OddMonomialError("polynomial has odd-degree monomials")
    if p.degree > target_degree:
        raise DegreeCapError(
            f"target degree {target_degree} below polynomial degree {p.degree}")
    w = np.asarray(line.normal, dtype=float)
    if p.dim != 2 or w.shape != (2,):
        raise DimensionError("homogenization is planar")
    parts = np.zeros((target_degree + 1, target_degree + 1))
    for (a, b), v in p.coeffs.items():
        parts[a + b, b] = v
    return HomogeneousPoly.from_vector(_lift_graded(parts, w))


def cheb_nodes(n):
    """The n Chebyshev-Gauss nodes cos((k + 1/2) pi / n), k = 0, ..., n-1."""
    return np.cos((np.arange(n) + 0.5) * np.pi / n)


def cheb_coeffs(vals, axis=-1):
    """Chebyshev coefficients of the interpolant through values at
    cheb_nodes(n) along `axis`: a DCT-II divided by n, first one halved."""
    c = dct(vals, type=2, axis=axis) / np.shape(vals)[axis]
    np.moveaxis(c, axis, 0)[0] *= 0.5
    return c


def growth_bound(n, a, x):
    """Certified off-interval bound (2|x|/a)^n for sup-norm-1 polynomials."""
    if a <= 0:
        raise ValueError("a must be positive")
    if abs(x) <= a:
        raise ValueError("growth bound requires |x| > a")
    return (2.0 * abs(x) / a) ** n


def growth_bound_check(p, a, x):
    """(|p(x)|, bound, ok) for a univariate DensePoly with ||p||_[-a,a] <= 1."""
    if p.dim != 1:
        raise DimensionError("growth bound applies to univariate polynomials")
    b = growth_bound(p.degree, a, x)
    val = abs(float(p(x)))
    return val, b, val <= b * (1 + 1e-12)
