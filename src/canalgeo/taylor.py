"""Truncated multivariate Taylor arithmetic (forward-mode differentiation).

A `Taylor` value holds the coefficients of a polynomial in k variables,
truncated after total degree ``order``: the coefficient of the monomial
``h^alpha`` is ``D^alpha f(x0) / alpha!``.  Arithmetic on such values
propagates exact derivatives through a program (Griewank and Walther,
*Evaluating Derivatives*, ch. 13), so a function evaluated on `_variables`
yields its jet with no symbolic differentiation and no step size.

Products are truncated through a precomputed table of monomial pairs; an
elementary function composes its own Taylor series
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


@functools.lru_cache(maxsize=None)
def _basis(k: int, order: int) -> _Basis:
    return _Basis(k, order)


def _product(basis: _Basis, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Coefficients of the truncated product of two coefficient vectors."""
    return np.bincount(basis.out, x[basis.left] * y[basis.right], basis.size)


class Taylor:
    """Truncated Taylor polynomial of one value in k variables.

    ``_powers`` caches the rows h^0 .. h^order of the non-constant part h.
    """

    __slots__ = ("c", "basis", "_powers")
    __array_ufunc__ = None  # NumPy scalars defer to the reflected operators

    def __init__(self, coeffs: np.ndarray, basis: _Basis):
        self.c = coeffs
        self.basis = basis
        self._powers = None

    def __add__(self, other):
        if isinstance(other, Taylor):
            return Taylor(self.c + other.c, self.basis)
        c = self.c.copy()
        c[0] += other
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
            return self * other.series(_power_series(other.c[0], -1.0, other.basis.order))
        return self * (1.0 / other)

    def __rtruediv__(self, other):
        return self.series(_power_series(self.c[0], -1.0, self.basis.order)) * other

    def __pow__(self, r):
        if isinstance(r, Taylor):
            return NotImplemented
        return self.series(_power_series(self.c[0], r, self.basis.order))

    def series(self, coeffs) -> "Taylor":
        """``sum_j coeffs[j] h^j`` for j <= order, h the non-constant part of self.

        The powers of h are computed once per value, so every function of the
        same argument costs one matrix-vector product.
        """
        powers = self._powers
        if powers is None:
            basis = self.basis
            powers = np.zeros((basis.order + 1, basis.size))
            powers[0, 0] = 1.0
            powers[1, 1:] = self.c[1:]
            for j in range(2, basis.order + 1):
                powers[j] = _product(basis, powers[j - 1], powers[1])
            self._powers = powers
        return Taylor(np.dot(coeffs, powers), self.basis)


def _power_series(x0: float, r: float, order: int) -> list[float]:
    """Taylor coefficients of ``x**r`` at x0; an integer r >= 0 stops at degree r."""
    x0, r = float(x0), float(r)
    top = order if r < 0 or r != int(r) else min(order, int(r))
    coeffs, binom = [], 1.0
    for j in range(top + 1):
        coeffs.append(binom * math.pow(x0, r - j))
        binom *= (r - j) / (j + 1)
    return coeffs + [0.0] * (order - top)


def _elementary(name: str, series_at):
    """Lift ``series_at(x0) -> [f(x0), f'(x0), f''(x0) / 2, f'''(x0) / 6]``."""
    scalar, array = getattr(math, name), getattr(np, name)

    def fn(x):
        if isinstance(x, Taylor):
            return x.series(series_at(float(x.c[0]))[: x.basis.order + 1])
        return array(x) if isinstance(x, np.ndarray) else scalar(x)

    fn.__name__ = name
    return fn


def _sin_series(x0):
    s, c = math.sin(x0), math.cos(x0)
    return [s, c, -0.5 * s, -c / 6.0]


def _cos_series(x0):
    s, c = math.sin(x0), math.cos(x0)
    return [c, -s, -0.5 * c, s / 6.0]


def _exp_series(x0):
    e = math.exp(x0)
    return [e, e, 0.5 * e, e / 6.0]


def _log_series(x0):
    inv = 1.0 / x0
    return [math.log(x0), inv, -0.5 * inv * inv, inv * inv * inv / 3.0]


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


def _variables(u, order: int) -> list[Taylor]:
    """Independent variables ``u_a + h_a`` as Taylor values of order <= 3."""
    if not 0 < order <= MAX_ORDER:
        raise ValueError(f"Taylor arithmetic is provided for orders 1..{MAX_ORDER}, not {order}")
    u = np.asarray(u, dtype=float).reshape(-1)
    basis = _basis(u.size, order)
    out = []
    for a, ua in enumerate(u):
        c = np.zeros(basis.size)
        c[0], c[1 + a] = ua, 1.0
        out.append(Taylor(c, basis))
    return out


def _constant(basis: _Basis, value) -> np.ndarray:
    c = np.zeros(basis.size)
    c[0] = value
    return c


def _derivatives(values, k: int, order: int) -> list[np.ndarray]:
    """Derivative tensors of a vector of Taylor values (or constants).

    Entry j of the result has shape ``(k,) * j + (n,)`` for n values and
    holds every partial derivative of order j; it is exactly symmetric in
    its first j indices.
    """
    basis = _basis(k, order)
    columns = [v.c if isinstance(v, Taylor) else _constant(basis, v) for v in values]
    flat = np.stack(columns, axis=1)[basis.gather] * basis.factorials
    out, start = [], 0
    for deg in range(order + 1):
        out.append(flat[start : start + k**deg].reshape((k,) * deg + (len(values),)))
        start += k**deg
    return out


def jet_function(fn, order: int):
    """``u -> derivative tensors of fn(*u)`` through ``order``.

    ``fn`` takes one argument per parameter and returns a sequence of
    values; written over this module's functions and operators, it runs on
    Taylor variables unchanged.  A point where an elementary function is
    undefined raises `DomainError` when the jet is taken.
    """

    def jet(u) -> tuple[np.ndarray, ...]:
        u = np.asarray(u, dtype=float).reshape(-1)
        seeds = _variables(u, order)
        try:
            values = fn(*seeds)
        except (ArithmeticError, ValueError) as exc:
            raise DomainError(f"not differentiable at {u.tolist()}: {exc}") from None
        return tuple(_derivatives(values, u.size, order))

    return jet
