"""Taylor-arithmetic jets of symbolic charts against a SymPy reference.

The reference differentiates the chart expressions with ``sp.diff`` and
evaluates every derivative at 30 digits with mpmath, so its own rounding
does not enter the comparison.
"""

import itertools
import math

import mpmath
import numpy as np
import pytest
import sympy as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

from canalgeo import DomainError, catalog
from canalgeo.catalog import (
    family_from_expressions,
    planar_canal_surface,
    surface_from_expressions,
)

REL = 1e-12
ULPS = 4  # order-0 slack beyond the float64 evaluation error, in units in the last place


def sympy_jet(params, exprs, order=3):
    """``u -> derivative tensors of exprs at u`` through ``order``, by sp.diff."""
    k, n = len(params), len(exprs)
    ders = {(): list(exprs)}  # sorted index tuple -> derivatives of every expression
    for j in range(1, order + 1):
        for idx in itertools.combinations_with_replacement(range(k), j):
            ders[idx] = [sp.diff(e, params[idx[-1]]) for e in ders[idx[:-1]]]
    keys = list(ders)
    fn = sp.lambdify(params, [e for key in keys for e in ders[key]], modules="mpmath", cse=True)

    def at(u):
        with mpmath.workdps(30):
            vals = [float(v) for v in fn(*(mpmath.mpf(float(x)) for x in u))]
        value = dict(zip(keys, np.array(vals).reshape(len(keys), n)))
        out = []
        for j in range(order + 1):
            tensor = np.empty((k,) * j + (n,))
            for multi in itertools.product(range(k), repeat=j):
                tensor[multi] = value[tuple(sorted(multi))]
            out.append(tensor)
        return out

    return at


def assert_jet_matches(jet, ref, value=None):
    """Each derivative order within REL of its largest reference entry.

    An order whose reference is identically zero is bounded by REL of the
    largest reference entry over all orders instead: its exact zero comes out
    of cancelling terms of that size, as in ``pi**3 - pi**3``.

    ``value``, the chart evaluated in plain float64, widens the order-0 bound
    entrywise to that evaluation's own error plus ULPS ulp: the jet's value is
    float64 arithmetic of the same expression, so it inherits the rounding
    of e.g. ``log(1 + x)`` at small x, which no derivative order shares.
    """
    overall = max(float(np.max(np.abs(want))) for want in ref)
    for j, (got, want) in enumerate(zip(jet, ref)):
        got = np.asarray(got, dtype=float)
        assert got.shape == want.shape
        scale = float(np.max(np.abs(want))) or overall
        err = np.abs(got - want)
        bound = np.full(err.shape, REL * scale)
        if j == 0 and value is not None:
            bound = np.maximum(bound, np.abs(value - want) + ULPS * np.spacing(np.abs(value)))
        assert np.all(err <= bound), (j, float(np.max(err)), scale)


def assert_exactly_symmetric(d2, d3):
    assert np.array_equal(d2, np.swapaxes(d2, 0, 1))
    for perm in itertools.permutations(range(3)):
        assert np.array_equal(d3, np.transpose(d3, perm + (3,)))


def captured_charts(monkeypatch):
    """Record the (params, exprs) of every surface_from_expressions call."""
    seen = []
    original = catalog.surface_from_expressions

    def recording(params, exprs, *args, **kwargs):
        seen.append((list(params), [sp.sympify(e) for e in exprs]))
        return original(params, exprs, *args, **kwargs)

    monkeypatch.setattr(catalog, "surface_from_expressions", recording)
    return seen


# ---------------------------------------------------------------------------
# random expression trees over the supported primitives


def _positive(e):
    return 1 + e**2


_UNARY = [
    lambda e: -e,
    sp.sin,
    sp.cos,
    lambda e: sp.exp(sp.sin(e)),
    lambda e: sp.log(_positive(e)),
    lambda e: sp.sqrt(_positive(e)),
    lambda e: e**2,
    lambda e: e**3,
    lambda e: _positive(e) ** -1,
    lambda e: _positive(e) ** -3,
    lambda e: _positive(e) ** sp.Rational(3, 2),
    lambda e: _positive(e) ** sp.Rational(-2, 3),
    lambda e: sp.pi * e,
    lambda e: sp.E * e,
]
_BINARY = [
    lambda a, b: a + b,
    lambda a, b: a - b,
    lambda a, b: a * b,
    lambda a, b: a / (2 + sp.cos(b)),
    lambda a, b: a / _positive(b),
]


@st.composite
def trees(draw, symbols, depth=3):
    if depth == 0 or draw(st.integers(0, 3)) == 0:
        if draw(st.booleans()):
            return draw(st.sampled_from(symbols))
        num = draw(st.integers(-5, 5))
        den = draw(st.integers(1, 4))
        return sp.Rational(num, den) + draw(st.sampled_from(symbols))
    if draw(st.booleans()):
        return draw(st.sampled_from(_UNARY))(draw(trees(symbols, depth - 1)))
    op = draw(st.sampled_from(_BINARY))
    return op(draw(trees(symbols, depth - 1)), draw(trees(symbols, depth - 1)))


@st.composite
def charts(draw):
    k = draw(st.sampled_from([2, 3]))
    params = list(sp.symbols("u0:%d" % k, real=True))
    exprs = [draw(trees(params)) for _ in range(k + 1)]
    u = draw(st.lists(st.floats(-1.0, 1.0), min_size=k, max_size=k))
    return params, exprs, np.array(u)


_U = sp.symbols("u0:2", real=True)
# order 0 is 1.8e-12 off in relative terms, in float64 evaluation as in the jet:
# cancellation in log(1 + x) at x = 2e-5
_LOG_CANCELLATION = (
    list(_U),
    [
        _U[0],
        _U[0],
        sp.log(sp.log((_U[0] + sp.Rational(1, 4)) ** 2 / (sp.cos(_U[0]) + 2) ** 2 + 1) ** 2 + 1),
    ],
    np.zeros(2),
)
# the exact third derivative of the last coordinate is -(-pi**3 + pi**3) = 0;
# the Taylor jet gives 1.7e-15
_ZERO_ORDER = (list(_U), [_U[0], _U[0], -sp.exp(sp.sin(sp.pi * _U[0]))], np.zeros(2))


@settings(max_examples=40, deadline=None)
@given(charts())
@example(_LOG_CANCELLATION)
@example(_ZERO_ORDER)
def test_random_expression_jets_match_sympy(chart):
    params, exprs, u = chart
    k = len(params)
    surf = surface_from_expressions(params, exprs, domain=[[-1.0, 1.0]] * k)
    jet = surf.jet(u)
    assert_jet_matches(jet, sympy_jet(params, exprs)(u), value=surf.chart(u))
    assert_exactly_symmetric(jet[2], jet[3])


# ---------------------------------------------------------------------------
# catalog charts and spines, and dented planar canal surfaces


def catalog_chart(name):
    """(params, exprs) of ``make_surface(name)`` at its default parameters."""
    u, v = sp.symbols("u v", real=True)
    t, ph, th = sp.symbols("t ph th", real=True)
    ring, half = 2 + sp.cos(v), sp.Rational(1, 2)
    tube = 2 + half * sp.cos(ph)
    return {
        "sphere": ([u, v], [sp.cos(u) * sp.cos(v), sp.sin(u) * sp.cos(v), sp.sin(v)]),
        "plane": ([u, v], [u, v, sp.Integer(0)]),
        "cylinder": ([u, v], [sp.cos(u), sp.sin(u), v]),
        "torus": ([u, v], [ring * sp.cos(u), ring * sp.sin(u), sp.sin(v)]),
        "ellipsoid": ([u, v], [3 * sp.cos(u) * sp.cos(v), 2 * sp.sin(u) * sp.cos(v), sp.sin(v)]),
        "tube4": (
            [t, ph, th],
            [
                tube * sp.cos(t),
                tube * sp.sin(t),
                half * sp.sin(ph) * sp.cos(th),
                half * sp.sin(ph) * sp.sin(th),
            ],
        ),
    }[name]


def catalog_spine(name):
    """(t, [center..., rho]) of ``make_family(name)`` at its default parameters."""
    t = sp.Symbol("t", real=True)
    half = sp.Rational(1, 2)
    circle = [2 * sp.cos(t), 2 * sp.sin(t)]
    return t, {
        "circle-tube": circle + [0, half],
        "line-cone": [t, 0, 0, half * t],
        "helix-tube": circle + [half * t, half],
        "r4-circle": circle + [0, 0, half],
        "wobble-tube": [
            t,
            sp.Rational(2, 5) * sp.sin(3 * t),
            0,
            sp.Rational(3, 5) + sp.Rational(3, 20) * sp.sin(2 * t),
        ],
    }[name]


def family_jet_rows(family, tv):
    """A family's order-2 jet at tv as rows [c..., rho], like sympy_jet's."""
    fj = family.jet_at([tv])
    return [
        np.append(fj.c, fj.rho),
        np.append(fj.dc, fj.drho[:, None], axis=1),
        np.append(fj.d2c, fj.d2rho[:, :, None], axis=2),
    ]


@pytest.mark.parametrize("name", ["sphere", "plane", "cylinder", "torus", "ellipsoid", "tube4"])
def test_catalog_jets_match_sympy(name):
    surf = catalog.make_surface(name)
    params, exprs = catalog_chart(name)
    reference = sympy_jet(params, exprs)
    grid = surf.sample_grid(2 if surf.dim_n == 4 else 3)
    chart = surf.chart(grid)
    for u, value in zip(grid, chart):
        ref = reference(u)
        jet = surf.jet(u)
        assert_jet_matches(jet, ref)
        assert_exactly_symmetric(jet[2], jet[3])
        # the batched chart is the same definition on array columns
        assert_jet_matches([value], ref[:1])


@pytest.mark.parametrize(
    "name", ["circle-tube", "line-cone", "helix-tube", "r4-circle", "wobble-tube"]
)
def test_catalog_family_jets_match_sympy(name):
    family = catalog.make_family(name)
    t, rows = catalog_spine(name)
    reference = sympy_jet([t], rows, order=2)
    lo, hi = family.domain[0]
    for tv in lo + (hi - lo) * np.array([0.1, 0.45, 0.9]):
        assert_jet_matches(family_jet_rows(family, tv), reference([tv]))


@pytest.mark.parametrize("dim_n", [3, 4])
def test_dented_planar_canal_jets_match_sympy(dim_n, monkeypatch):
    seen = captured_charts(monkeypatch)
    t = sp.Symbol("t", real=True)
    th = sp.Symbol("th" if dim_n == 3 else "be", real=True)
    x, y = 2 * sp.cos(t) + sp.Rational(1, 5) * sp.cos(2 * t), 2 * sp.sin(t)
    rho = sp.Rational(1, 2) + sp.Rational(1, 10) * sp.sin(t)
    bump = sp.Float(0.04) * sp.sin(3 * t + sp.Float(0.3)) * sp.cos(2 * th)
    surf, fam = planar_canal_surface(
        x, y, rho, t_sym=t, dim_n=dim_n, t_domain=(0.0, 2 * math.pi), perturbation=bump
    )
    (params, exprs), = seen
    reference = sympy_jet(params, exprs)
    for u in surf.sample_grid(2):
        jet = surf.jet(u)
        assert_jet_matches(jet, reference(u))
        assert_exactly_symmetric(jet[2], jet[3])

    # the generating family's order-2 jet comes from the same arithmetic
    rows = [x, y] + [sp.Integer(0)] * (dim_n - 2) + [rho]
    reference = sympy_jet([t], rows, order=2)
    for tv in (0.4, 2.5, 5.9):
        assert_jet_matches(family_jet_rows(fam, tv), reference([tv]))


# ---------------------------------------------------------------------------
# typed failures at construction


@pytest.mark.parametrize(
    "make, word",
    [
        (lambda u, v: sp.atan(u * v), "atan"),
        (lambda u, v: sp.Abs(u - v), "Abs"),
        (lambda u, v: sp.tanh(u) + 1, "tanh"),
        (lambda u, v: u**v, r"power u\*\*v"),
        (lambda u, v: u + sp.Symbol("w"), "symbol w"),
    ],
)
def test_unsupported_chart_raises_at_construction(make, word):
    u, v = sp.symbols("u v", real=True)
    with pytest.raises(DomainError, match=word):
        surface_from_expressions([u, v], [u, v, make(u, v)], domain=[[0.1, 1.0]] * 2)


def test_unsupported_family_raises_at_construction():
    t = sp.Symbol("t", real=True)
    with pytest.raises(DomainError, match="Abs"):
        family_from_expressions(t, sp.cos(t), sp.sin(t), 1 + sp.Abs(sp.sin(t)) / 4, 3, (0, 1))


def test_expression_floats_keep_every_bit():
    # a 15-digit printer would run this radius as 0.318142180092498
    r = 0.31814218009249834
    u, v = sp.symbols("u v", real=True)
    surf = surface_from_expressions(
        [u, v], [u, v, sp.Float(r) * sp.cos(u) + v], domain=[[0.0, 1.0]] * 2
    )
    pts = np.random.default_rng(3).uniform(0.0, 1.0, (50, 2))
    assert np.array_equal(surf.chart(pts)[:, 2], r * np.cos(pts[:, 0]) + pts[:, 1])


def test_chart_outside_its_real_domain_raises_typed_error():
    u, v = sp.symbols("u v", real=True)
    surf = surface_from_expressions([u, v], [u, v, sp.sqrt(u)], domain=[[-1.0, 1.0]] * 2)
    with pytest.raises(DomainError, match="not differentiable"):
        surf.jet(np.array([-0.5, 0.2]))
