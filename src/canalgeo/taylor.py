"""Truncated multivariate Taylor arithmetic (forward-mode differentiation).

A `Taylor` value holds the coefficients of a polynomial in k variables,
truncated after total degree ``order``: the coefficient of the monomial
``h^alpha`` is ``D^alpha f(x0) / alpha!``.  Arithmetic on such values
propagates exact derivatives through a program (Griewank and Walther,
*Evaluating Derivatives*, ch. 13), so a function evaluated on `_variables`
yields its jet with no symbolic differentiation and no step size.

Every value holds a batch of P points: its coefficients are the P rows of
M monomial coefficients, stored flat, and each row comes out exactly as it
would alone.  Products are truncated through a precomputed table of
monomial pairs; an elementary function composes its own Taylor series
``f(x0 + h) = sum_j f^(j)(x0) / j! h^j`` with the non-constant part h.

The module is also the math namespace of every analytic chart and spine:
``sin``, ``cos``, ``exp``, ``log``, ``sqrt``, ``pi`` and ``E`` accept
floats (through `math`), NumPy arrays (through NumPy) and `Taylor` values,
so one plain Python function gives both a batched chart and, through
`jet_function`, its exact jet.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np

from .errors import DomainError

__all__ = ["sin", "cos", "exp", "log", "sqrt", "pi", "E", "jet_function"]

MAX_ORDER = 3  # the elementary series below stop at h^3


class _Basis:
    """Monomials of degree <= order in k variables and their product table.

    A monomial is the sorted tuple of its variable indices, so ``(0, 0, 1)``
    is h_0^2 h_1; monomials are ordered by degree.
    """

    def __init__(self, k: int, order: int):
        self.order = order
        monomials = [
            mono
            for deg in range(order + 1)
            for mono in itertools.combinations_with_replacement(range(k), deg)
        ]
        self.size = len(monomials)
        position = {mono: i for i, mono in enumerate(monomials)}
        pairs = [
            (i, j, position[tuple(sorted(a + b))])
            for i, a in enumerate(monomials)
            for j, b in enumerate(monomials)
            if len(a) + len(b) <= order
        ]
        self.left, self.right, self.out = (np.array(col, dtype=np.intp) for col in zip(*pairs))
        # derivative tensors of every order, flattened in turn:
        # D_{a b ..} = alpha! * coefficient of the sorted monomial (a, b, ..)
        multis = [m for deg in range(order + 1) for m in itertools.product(range(k), repeat=deg)]
        self.gather = np.array([position[tuple(sorted(m))] for m in multis], dtype=np.intp)
        self.factorials = np.array(
            [[math.prod(math.factorial(m.count(a)) for a in set(m))] for m in multis], dtype=float
        )
        bounds = list(itertools.accumulate((k**deg for deg in range(order + 1)), initial=0))
        self.degrees = list(zip(bounds[:-1], bounds[1:]))  # gather rows of each order
        self._pairs: dict[int, tuple] = {}

    def pairs(self, rows: int) -> tuple[np.ndarray, ...]:
        """The product table's left, right and output monomials as flat indices of ``rows`` rows."""
        flat = self._pairs.get(rows)
        if flat is None:
            offsets = np.arange(rows)[:, None] * self.size
            flat = tuple((offsets + col).ravel() for col in (self.left, self.right, self.out))
            if len(self._pairs) < 64:
                self._pairs[rows] = flat
        return flat


@functools.lru_cache(maxsize=None)
def _basis(k: int, order: int) -> _Basis:
    return _Basis(k, order)


def _product(basis: _Basis, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Flat coefficients of the truncated products of two flat coefficient batches.

    One bincount over every row visits each row's monomial pairs in the
    order a single-row bincount does, so no row depends on its batch.
    """
    left, right, bins = basis.pairs(x.size // basis.size)
    return np.bincount(bins, x[left] * y[right], x.size)


class Taylor:
    """Truncated Taylor polynomials of one value in k variables, at P points.

    ``c`` holds the P rows of M coefficients, flat (P * M,).  ``_powers``
    caches h^0 .. h^order of the non-constant part h, (P, order + 1, M),
    and ``_trig`` the sines and cosines of the constant terms (see `trig`).
    """

    __slots__ = ("c", "basis", "_powers", "_trig")
    __array_ufunc__ = None  # NumPy scalars defer to the reflected operators

    def __init__(self, coeffs: np.ndarray, basis: _Basis):
        self.c = coeffs
        self.basis = basis
        self._powers = None
        self._trig = None

    @property
    def x0(self) -> np.ndarray:
        """The constant terms, one per point."""
        return self.c[:: self.basis.size]

    def __add__(self, other):
        if isinstance(other, Taylor):
            return Taylor(self.c + other.c, self.basis)
        c = self.c.copy()
        x0 = c[:: self.basis.size]
        x0 += other  # in place, through the view
        return Taylor(c, self.basis)

    __radd__ = __add__

    def __neg__(self):
        return self * -1.0

    def __sub__(self, other):
        if isinstance(other, Taylor):
            return Taylor(self.c - other.c, self.basis)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, Taylor):
            return Taylor(_product(self.basis, self.c, other.c), self.basis)
        return Taylor(self.c * other, self.basis)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Taylor):
            return self * other.series(_power_series(other.x0, -1.0, other.basis.order))
        return self * (1.0 / other)

    def __rtruediv__(self, other):
        return self.series(_power_series(self.x0, -1.0, self.basis.order)) * other

    def __pow__(self, r):
        if isinstance(r, Taylor):
            return NotImplemented
        return self.series(_power_series(self.x0, r, self.basis.order))

    def trig(self) -> np.ndarray:
        """Series rows of sin and of cos at the constant terms, (P, 8), columns 0-3 and 4-7.

        Computed once per value, which then serves both functions.
        """
        if self._trig is None:
            x0 = self.x0
            sin_cos = np.array([np.sin(x0), np.cos(x0)])
            self._trig = sin_cos[_TRIG_ROWS].T / _TRIG_DIVISORS
        return self._trig

    def series(self, coeffs: np.ndarray) -> "Taylor":
        """``sum_j coeffs[:, j] h^j`` for j <= order, h the non-constant part of self.

        ``coeffs`` is (P, order + 1), one row per point.  The powers of h are
        computed once per value, so every function of the same argument costs
        one stacked vector-matrix product: per row, the ``dot`` that row
        alone would make.
        """
        basis = self.basis
        powers = self._powers
        if powers is None:
            flat = np.zeros((basis.order + 1, self.c.size))
            flat[0, :: basis.size] = 1.0
            flat[1] = self.c
            flat[1, :: basis.size] = 0.0
            for j in range(2, basis.order + 1):
                flat[j] = _product(basis, flat[j - 1], flat[1])
            # (P, order + 1, M), unit stride along M
            powers = flat.reshape(basis.order + 1, -1, basis.size).transpose(1, 0, 2)
            self._powers = powers
        return Taylor(np.matmul(coeffs[:, None, :], powers).reshape(-1), basis)


def _power_series(x0: np.ndarray, r: float, order: int) -> np.ndarray:
    """Taylor coefficients of ``x**r`` at each x0 (P,), shape (P, order + 1).

    An integer r >= 0 stops at degree r.  Where x**r is undefined the
    coefficients come out non-finite.
    """
    r = float(r)
    top = order if r < 0 or r != int(r) else min(order, int(r))
    coeffs, binom = np.zeros((x0.size, order + 1)), 1.0
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for j in range(top + 1):
            coeffs[:, j] = binom * np.power(x0, r - j)
            binom *= (r - j) / (j + 1)
    return coeffs


def _elementary(name: str, series_of):
    """Lift ``series_of(x)``: per point, the row f(x0), f'(x0), f''(x0) / 2, f'''(x0) / 6."""
    scalar, array = getattr(math, name), getattr(np, name)

    def fn(x):
        if isinstance(x, Taylor):
            return x.series(series_of(x)[:, : x.basis.order + 1])
        return array(x) if isinstance(x, np.ndarray) else scalar(x)

    fn.__name__ = name
    return fn


# sin's series row is (s, c, -s / 2, -c / 6) and cos's (c, -s, -c / 2, s / 6), each
# term a division: s / -2 rounds exactly as -0.5 * s
_TRIG_ROWS = np.array([0, 1, 0, 1, 1, 0, 1, 0])  # s or c, term by term
_TRIG_DIVISORS = np.array([1.0, 1.0, -2.0, -6.0, 1.0, -1.0, -2.0, 6.0])
_EXP_DIVISORS = np.array([1.0, 1.0, 2.0, 6.0])


def _sin_series(x: Taylor) -> np.ndarray:
    return x.trig()[:, :4]


def _cos_series(x: Taylor) -> np.ndarray:
    return x.trig()[:, 4:]


def _exp_series(x: Taylor) -> np.ndarray:
    with np.errstate(over="ignore"):  # an overflow shows as a non-finite jet
        return np.exp(x.x0)[:, None] / _EXP_DIVISORS


def _log_series(x: Taylor) -> np.ndarray:
    x0 = x.x0
    with np.errstate(divide="ignore", invalid="ignore"):  # x0 <= 0 shows as a non-finite jet
        inv = 1.0 / x0
        return np.stack([np.log(x0), inv, -0.5 * inv * inv, inv * inv * inv / 3.0], axis=1)


sin = _elementary("sin", _sin_series)
cos = _elementary("cos", _cos_series)
exp = _elementary("exp", _exp_series)
log = _elementary("log", _log_series)


def sqrt(x):
    if isinstance(x, Taylor):
        return x**0.5
    return np.sqrt(x) if isinstance(x, np.ndarray) else math.sqrt(x)


pi = math.pi
E = math.e


def _variables(u: np.ndarray, order: int) -> list[Taylor]:
    """Independent variables ``u_a + h_a`` at every row of u (P, k), order <= 3."""
    if not 0 < order <= MAX_ORDER:
        raise ValueError(f"Taylor arithmetic is provided for orders 1..{MAX_ORDER}, not {order}")
    rows, k = u.shape
    basis = _basis(k, order)
    out = []
    for a in range(k):
        c = np.zeros(rows * basis.size)
        c[:: basis.size] = u[:, a]
        c[1 + a :: basis.size] = 1.0
        out.append(Taylor(c, basis))
    return out


def _coefficients(values, basis: _Basis, lead: tuple) -> np.ndarray:
    """Coefficients (*lead, M, n) of a vector of n Taylor values (or constants)."""
    n = len(values)
    out = np.zeros((n, math.prod(lead) * basis.size))
    for i, v in enumerate(values):
        if isinstance(v, Taylor):
            out[i] = v.c
        else:
            out[i, :: basis.size] = v
    axes = tuple(range(1, len(lead) + 2)) + (0,)
    return out.reshape((n,) + lead + (basis.size,)).transpose(axes)


def _derivatives(coeffs: np.ndarray, basis: _Basis, k: int) -> list[np.ndarray]:
    """Derivative tensors of the coefficients (*lead, M, n) of n values.

    Entry j of the result has shape ``lead + (k,) * j + (n,)`` and holds every
    partial derivative of order j; it is exactly symmetric in its j
    derivative indices.
    """
    lead, n = coeffs.shape[:-2], coeffs.shape[-1]
    flat = np.take(coeffs, basis.gather, axis=-2) * basis.factorials
    return [
        flat[..., start:stop, :].reshape(lead + (k,) * deg + (n,))
        for deg, (start, stop) in enumerate(basis.degrees)
    ]


def _from_derivatives(tensors) -> list[Taylor]:
    """The inverse of `_derivatives`: one Taylor value per component of the derivative tensors
    (P, n), (P, k, n), (P, k, k, n), ... through the order of the last.  Each monomial takes
    the entry at its sorted index (the first of its multi-indices), divided by alpha!."""
    rows, k, n = tensors[0].shape[0], tensors[1].shape[1], tensors[0].shape[-1]
    basis = _basis(k, len(tensors) - 1)
    flat = np.concatenate([np.reshape(d, (rows, -1, n)) for d in tensors], axis=1)
    _, first = np.unique(basis.gather, return_index=True)
    coeffs = flat[:, first] / basis.factorials[first]  # (P, M, n)
    return [Taylor(coeffs[:, :, i].ravel(), basis) for i in range(n)]


def jet_function(fn, order: int):
    """``u -> derivative tensors of fn(*u)`` through ``order``.

    ``fn`` takes one argument per parameter and returns a sequence of n
    values; written over this module's functions and operators, it runs on
    Taylor variables unchanged.  As for a chart, a (k,) point gives tensors
    of shapes (n,), (k, n), (k, k, n), ... and a (P, k) batch gives them with
    a leading P axis, each row as that point alone gives it.  Where an
    elementary function is undefined or overflows, that row's jet comes out
    not finite; the batched passes name such rows (`jets.evaluate_jets`,
    `envelope.SphereFamily.jets_at`).  An arithmetic or value error of ``fn``
    itself, which no row of a batch decides, raises `DomainError`.
    """

    def jet(u) -> tuple[np.ndarray, ...]:
        u = np.asarray(u, dtype=float)
        pts = u.reshape(-1, u.shape[-1])  # a single point is a batch of one
        seeds = _variables(pts, order)
        basis = seeds[0].basis
        try:
            with np.errstate(all="ignore"):  # an undefined row computes on, quietly
                coeffs = _coefficients(fn(*seeds), basis, u.shape[:-1])
        except (ArithmeticError, ValueError) as exc:
            raise DomainError(f"not differentiable at {pts[0].tolist()}: {exc}") from None
        return tuple(_derivatives(coeffs, basis, pts.shape[1]))

    return jet
