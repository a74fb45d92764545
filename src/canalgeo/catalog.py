"""Built-in surfaces and sphere families with exact derivative providers.

Every built-in chart and family spine is written once, as a plain function
over the math namespace of `taylor`: on NumPy columns it is the batched
chart, on Taylor variables it gives the exact order-3 jet (order 2 for a
spine) with no symbolic differentiation and no step size.  The operand
order inside each definition is deliberate: a product of Taylor values, and
a chain of scalar products, rounds differently when its operands swap.

SymPy is only the input language of user expressions: `surface_from_expressions`,
`family_from_expressions` and `planar_canal_surface` import it, check the
nodes and lambdify onto the same namespace, then use the same builders.
Sampled families interpolate with a natural cubic spline in NumPy; height
fields interpolate with a SciPy spline, imported where it is built.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from . import taylor
from .envelope import _POLAR_MARGIN, FamilyJet, SphereFamily, batched_jet
from .errors import CanalGeoError, DomainError
from .jets import ParametricSurface
from .taylor import cos, jet_function, sin, sqrt

if TYPE_CHECKING:
    import sympy as sp

__all__ = [
    "surface_catalog",
    "family_catalog",
    "make_surface",
    "make_family",
    "surface_from_expressions",
    "graph_surface",
    "transform_surface",
    "planar_canal_surface",
    "family_from_expressions",
    "sampled_family",
]

TWO_PI = 2.0 * math.pi


# ---------------------------------------------------------------------------
# one builder per kind of analytic object


def _surface(fn, k: int, n: int, domain, name: str) -> ParametricSurface:
    """Surface whose chart is ``fn`` on array columns and whose jet is ``fn`` on Taylor values.

    ``fn`` takes k parameters and returns the n coordinates.
    """

    def chart(u):
        u = np.asarray(u, dtype=float)
        single = u.ndim == 1
        pts = np.atleast_2d(u)
        cols = fn(*(pts[:, i] for i in range(k)))
        cols = [np.broadcast_to(np.asarray(c, dtype=float), (pts.shape[0],)) for c in cols]
        out = np.stack(cols, axis=-1)
        return out[0] if single else out

    return ParametricSurface(
        dim_n=n, chart=chart, jet=jet_function(fn, 3), domain=domain, name=name
    )


def _family(spine, dim_n: int, domain, name: str) -> SphereFamily:
    """One-parameter family from ``spine(t) -> (center, rho)``.

    Its jet is the order-2 Taylor jet of ``spine``.
    """

    def values(t):
        center, rho = spine(t)
        return [*center, rho]

    jet = jet_function(values, 2)

    @batched_jet
    def jet2(t) -> FamilyJet:
        # a (1,) point or a (P, 1) batch: one Taylor pass either way
        p, d1, d2 = jet(np.asarray(t, dtype=float)[..., :1])
        return FamilyJet(
            c=p[..., :dim_n],
            dc=d1[..., :dim_n],
            d2c=d2[..., :dim_n],
            rho=p[..., dim_n] if p.ndim > 1 else float(p[dim_n]),
            drho=d1[..., dim_n],
            d2rho=d2[..., dim_n],
        )

    return SphereFamily(dim_n=dim_n, r=1, jet2=jet2, domain=[[domain[0], domain[1]]], name=name)


# ---------------------------------------------------------------------------
# SymPy front end for user expressions


def _lambdify(params, exprs):
    """Check that ``exprs`` use only what `taylor` covers, then lambdify onto it.

    Every node must be one of ``params``, a number, ``pi``, ``E``, a sum, a
    product, a power with a numeric exponent, ``sin``, ``cos``, ``exp`` or
    ``log``; anything else raises `DomainError` here rather than inside a jet.
    Each ``Float`` is printed by ``repr`` of its nearest double, so the
    chart runs with exactly that double (SymPy's own printer keeps 15 digits).
    """
    import sympy as sp
    from sympy.printing.pycode import PythonCodePrinter

    class ExactFloatPrinter(PythonCodePrinter):
        def _print_Float(self, expr):
            return repr(float(expr))

    exprs = [sp.sympify(e) for e in exprs]
    allowed = set(params)
    for expr in exprs:
        for node in sp.preorder_traversal(expr):
            if isinstance(node, sp.Symbol):
                if node not in allowed:
                    raise DomainError(f"chart symbol {node} is not one of the parameters")
            elif isinstance(node, sp.Pow):
                if not node.exp.is_Number:
                    raise DomainError(
                        f"Taylor jets need numeric exponents; got the power {node}"
                    )
            elif not (
                isinstance(node, (sp.Add, sp.Mul, sp.Number))
                or node.func in (sp.sin, sp.cos, sp.exp, sp.log)
                or node in (sp.pi, sp.E)
            ):
                raise DomainError(
                    f"Taylor jets do not cover the function {node.func.__name__} (in {node})"
                )
    namespace = {name: getattr(taylor, name) for name in taylor.__all__}
    printer = ExactFloatPrinter(
        {
            "fully_qualified_modules": False,
            "inline": True,
            "allow_unknown_functions": True,
            "user_functions": {name: name for name in namespace},
        }
    )
    return sp.lambdify(params, exprs, modules=[namespace], printer=printer, cse=True)


def surface_from_expressions(
    params: Sequence[sp.Symbol],
    exprs: Sequence[sp.Expr],
    domain,
    name: str = "",
) -> ParametricSurface:
    """Build a surface from a symbolic chart; its jet comes from Taylor arithmetic."""
    params, exprs = list(params), list(exprs)
    k, n = len(params), len(exprs)
    if n != k + 1:
        raise DomainError(f"chart must map {n - 1} parameters into R^{n}")
    return _surface(_lambdify(params, exprs), k, n, domain, name)


def transform_surface(
    surface: ParametricSurface,
    param_rot: np.ndarray | None = None,
    param_shift: np.ndarray | None = None,
    ambient_rot: np.ndarray | None = None,
    ambient_shift: np.ndarray | None = None,
    name: str = "",
) -> ParametricSurface:
    """Compose an analytic-jet surface with rigid motions, exactly.

    The new chart is ``u -> R . p(Q u + b) + s``; jets transform by the chain
    rule for the linear reparametrization, so an analytic source stays
    analytic.
    """
    if surface.jet is None:
        raise DomainError("transform_surface needs a surface with an analytic jet")
    k, n = surface.n_params, surface.dim_n
    q = np.eye(k) if param_rot is None else np.asarray(param_rot, dtype=float)
    b = np.zeros(k) if param_shift is None else np.asarray(param_shift, dtype=float)
    rot = np.eye(n) if ambient_rot is None else np.asarray(ambient_rot, dtype=float)
    s = np.zeros(n) if ambient_shift is None else np.asarray(ambient_shift, dtype=float)

    def chart(u):
        u = np.asarray(u, dtype=float)
        single = u.ndim == 1
        pts = np.atleast_2d(u)
        # one (1, k) @ (k, k) product per row, as a single-point call makes: a
        # batched matmul may take another kernel and round differently
        inner_u = (pts[:, None, :] @ q.T)[:, 0] + b
        out = (surface.chart(inner_u)[:, None, :] @ rot.T)[:, 0] + s
        return out[0] if single else out

    def jet(u):
        # a (k,) point or a (P, k) batch, as the source jet takes them
        u = np.asarray(u, dtype=float)
        p, d1, d2, d3 = surface.jet((q @ u[..., None])[..., 0] + b)
        p2 = (rot @ p[..., None])[..., 0] + s
        d1n = np.einsum("aA,...am,Nm->...AN", q, d1, rot)
        d2n = np.einsum("aA,bB,...abm,Nm->...ABN", q, q, d2, rot)
        d3n = np.einsum("aA,bB,cC,...abcm,Nm->...ABCN", q, q, q, d3, rot)
        return p2, d1n, d2n, d3n

    dom = None
    if surface.domain is not None and param_rot is None and param_shift is None:
        dom = surface.domain
    return ParametricSurface(
        dim_n=n, chart=chart, jet=jet, domain=dom, name=name or surface.name + "(moved)"
    )


# ---------------------------------------------------------------------------
# surface catalog


def _sphere(radius: float = 1.0) -> ParametricSurface:
    radius = float(radius)
    if radius <= 0:
        raise DomainError("sphere radius must be positive")

    def chart(u, v):
        ring = radius * cos(v)
        return [ring * cos(u), ring * sin(u), radius * sin(v)]

    return _surface(chart, 2, 3, [[0.0, TWO_PI], [-1.2, 1.2]], f"sphere(r={radius:g})")


def _plane() -> ParametricSurface:
    return _surface(lambda u, v: [u, v, 0.0], 2, 3, [[-1.0, 1.0], [-1.0, 1.0]], "plane")


def _cylinder(radius: float = 1.0) -> ParametricSurface:
    radius = float(radius)
    if radius <= 0:
        raise DomainError("cylinder radius must be positive")

    def chart(u, v):
        return [radius * cos(u), radius * sin(u), v]

    return _surface(chart, 2, 3, [[0.0, TWO_PI], [-1.0, 1.0]], f"cylinder(r={radius:g})")


def _torus(major: float = 2.0, minor: float = 1.0) -> ParametricSurface:
    major, minor = float(major), float(minor)
    if not (0 < minor < major):
        raise DomainError("torus needs 0 < minor < major")

    def chart(u, v):
        ring = minor * cos(v) + major
        return [ring * cos(u), ring * sin(u), minor * sin(v)]

    return _surface(
        chart, 2, 3, [[0.0, TWO_PI], [0.0, TWO_PI]], f"torus({major:g},{minor:g})"
    )


def _ellipsoid(a: float = 3.0, b: float = 2.0, c: float = 1.0) -> ParametricSurface:
    a, b, c = float(a), float(b), float(c)
    if min(a, b, c) <= 0:
        raise DomainError("ellipsoid semi-axes must be positive")

    def chart(u, v):
        cv = cos(v)
        return [a * cv * cos(u), b * cv * sin(u), c * sin(v)]

    return _surface(
        chart, 2, 3, [[0.0, TWO_PI], [-1.2, 1.2]], f"ellipsoid({a:g},{b:g},{c:g})"
    )


def _tube4(major: float = 2.0, minor: float = 0.5) -> ParametricSurface:
    """Hypersurface of R^4 swept by 2-spheres centered on a circle."""
    major, minor = float(major), float(minor)
    if not (0 < minor < major):
        raise DomainError("tube needs 0 < minor < major")

    def chart(t, ph, th):
        ct, st = cos(t), sin(t)
        rc, rs = minor * cos(ph), minor * sin(ph)
        return [ct * rc + major * ct, rc * st + major * st, rs * cos(th), rs * sin(th)]

    return _surface(
        chart,
        3,
        4,
        [[0.0, TWO_PI], [_POLAR_MARGIN, math.pi - _POLAR_MARGIN], [0.0, TWO_PI]],
        f"tube4({major:g},{minor:g})",
    )


def graph_surface(
    xs: Sequence[float], ys: Sequence[float], heights, name: str = "graph"
) -> ParametricSurface:
    """Height-field surface from samples, interpolated by a quintic spline.

    The jet is the exact jet of the spline, so derivative quality depends only
    on how well the samples resolve the underlying function.
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    z = np.asarray(heights, dtype=float)
    if z.shape != (xs.size, ys.size):
        raise DomainError("height grid must have shape (len(xs), len(ys))")
    if xs.size < 6 or ys.size < 6:
        raise DomainError("quintic height-field interpolation needs >= 6 samples per axis")
    try:
        from scipy.interpolate import RectBivariateSpline
    except ImportError as err:
        raise CanalGeoError(
            "graph_surface needs SciPy; install it with the extra: pip install 'canalgeo[graph]'"
        ) from err

    spline = RectBivariateSpline(xs, ys, z, kx=5, ky=5)

    def chart(u):
        u = np.asarray(u, dtype=float)
        single = u.ndim == 1
        pts = np.atleast_2d(u)
        h = spline.ev(pts[:, 0], pts[:, 1])
        out = np.stack([pts[:, 0], pts[:, 1], h], axis=-1)
        return out[0] if single else out

    def jet(u):
        # a (2,) point or a (P, 2) batch; the spline takes every point in one call
        u = np.asarray(u, dtype=float)
        x, y = u[..., 0], u[..., 1]
        d = lambda dx, dy: spline.ev(x, y, dx=dx, dy=dy)
        lead = x.shape
        p = np.stack([x, y, d(0, 0)], axis=-1)
        d1 = np.zeros(lead + (2, 3))
        d1[..., 0, 0] = d1[..., 1, 1] = 1.0
        d1[..., 0, 2] = d(1, 0)
        d1[..., 1, 2] = d(0, 1)
        d2 = np.zeros(lead + (2, 2, 3))
        d2[..., 0, 0, 2] = d(2, 0)
        d2[..., 0, 1, 2] = d2[..., 1, 0, 2] = d(1, 1)
        d2[..., 1, 1, 2] = d(0, 2)
        d3 = np.zeros(lead + (2, 2, 2, 3))
        d3[..., 0, 0, 0, 2] = d(3, 0)
        d3[..., 1, 1, 1, 2] = d(0, 3)
        for idx in [(0, 0, 1), (0, 1, 0), (1, 0, 0)]:
            d3[(Ellipsis,) + idx + (2,)] = d(2, 1)
        for idx in [(0, 1, 1), (1, 0, 1), (1, 1, 0)]:
            d3[(Ellipsis,) + idx + (2,)] = d(1, 2)
        return p, d1, d2, d3

    pad_x = 2 * (xs[1] - xs[0])
    pad_y = 2 * (ys[1] - ys[0])
    domain = [[xs[0] + pad_x, xs[-1] - pad_x], [ys[0] + pad_y, ys[-1] - pad_y]]
    return ParametricSurface(dim_n=3, chart=chart, jet=jet, domain=domain, name=name)


_SURFACES: dict[str, tuple[Callable, str]] = {
    "sphere": (_sphere, "round sphere; params: radius"),
    "plane": (_plane, "coordinate plane z = 0"),
    "cylinder": (_cylinder, "circular cylinder; params: radius"),
    "torus": (_torus, "torus of revolution; params: major, minor"),
    "ellipsoid": (_ellipsoid, "triaxial ellipsoid; params: a, b, c"),
    "tube4": (_tube4, "circle tube hypersurface in R^4; params: major, minor"),
}


def _params_object(params, scalars: bool) -> dict:
    """Keyword parameters of a catalog entry (an object, or None for none), each number finite.

    With ``scalars`` (the named factories) every value must be an int or a
    float, not a bool or a string; the sample-data entries take lists and a
    ``name`` string, and only their numbers are checked here.
    """
    if params is not None and not isinstance(params, dict):
        raise DomainError("params must be an object")
    params = dict(params or {})
    for key, value in params.items():
        if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
            if scalars:
                raise DomainError(f"parameter {key!r} must be a number, got {value!r}")
            continue
        try:
            finite = math.isfinite(value)
        except OverflowError:  # an int beyond the float range
            finite = False
        if not finite:
            raise DomainError(f"parameter {key!r} must be finite, got {value}")
    return params


def surface_catalog() -> dict[str, str]:
    out = {name: doc for name, (_, doc) in sorted(_SURFACES.items())}
    out["graph"] = "height field from samples; data: xs, ys, heights"
    return out


def make_surface(name: str, params: dict | None = None) -> ParametricSurface:
    if name == "graph":
        return graph_surface(**_params_object(params, scalars=False))
    try:
        factory, _ = _SURFACES[name]
    except KeyError:
        raise DomainError(
            f"unknown surface {name!r}; available: {sorted(surface_catalog())}"
        ) from None
    return factory(**_params_object(params, scalars=True))


# ---------------------------------------------------------------------------
# sphere family catalog (one-parameter families, analytic jets to order two)


def _circle_tube(major: float = 2.0, rho: float = 0.5) -> SphereFamily:
    major, rho = float(major), float(rho)
    if major <= 0 or rho <= 0:
        raise DomainError("circle-tube needs positive major radius and rho")
    return _family(
        lambda t: ([major * cos(t), major * sin(t), 0.0], rho),
        3,
        (0.0, TWO_PI),
        f"circle-tube({major:g},{rho:g})",
    )


def _line_cone(slope: float = 0.5) -> SphereFamily:
    slope = float(slope)
    if not (0 < slope < 1):
        raise DomainError("line-cone slope must lie in (0, 1) to stay spacelike")
    return _family(lambda t: ([t, 0.0, 0.0], slope * t), 3, (0.5, 2.0), f"line-cone({slope:g})")


def _helix_tube(major: float = 2.0, pitch: float = 0.5, rho: float = 0.5) -> SphereFamily:
    major, pitch, rho = float(major), float(pitch), float(rho)
    if major <= 0 or rho <= 0:
        raise DomainError("helix-tube needs positive major radius and rho")
    return _family(
        lambda t: ([major * cos(t), major * sin(t), pitch * t], rho),
        3,
        (0.0, TWO_PI),
        f"helix-tube({major:g},{pitch:g},{rho:g})",
    )


def _r4_circle(major: float = 2.0, rho: float = 0.5) -> SphereFamily:
    major, rho = float(major), float(rho)
    if major <= 0 or rho <= 0:
        raise DomainError("r4-circle needs positive major radius and rho")
    return _family(
        lambda t: ([major * cos(t), major * sin(t), 0.0, 0.0], rho),
        4,
        (0.0, TWO_PI),
        f"r4-circle({major:g},{rho:g})",
    )


def _wobble_tube(
    rho0: float = 0.6,
    amp: float = 0.15,
    freq: float = 2.0,
    sway: float = 0.4,
    sway_freq: float = 3.0,
) -> SphereFamily:
    rho0, amp = float(rho0), float(amp)
    freq, sway, sway_freq = float(freq), float(sway), float(sway_freq)
    if rho0 <= abs(amp):
        raise DomainError("wobble-tube needs rho0 > |amp| so the radius stays positive")
    return _family(
        lambda t: ([t, sway * sin(sway_freq * t), 0.0], rho0 + amp * sin(freq * t)),
        3,
        (0.0, TWO_PI),
        f"wobble-tube({rho0:g},{amp:g},{freq:g},{sway:g},{sway_freq:g})",
    )


_FAMILIES: dict[str, tuple[Callable, str]] = {
    "circle-tube": (_circle_tube, "constant-radius spheres on a circle; params: major, rho"),
    "line-cone": (_line_cone, "linearly growing spheres on a line; params: slope"),
    "helix-tube": (_helix_tube, "constant-radius spheres on a helix; params: major, pitch, rho"),
    "r4-circle": (_r4_circle, "constant-radius 3-spheres on a circle in R^4; params: major, rho"),
    "wobble-tube": (
        _wobble_tube,
        "swaying spine with oscillating radius; params: rho0, amp, freq, sway, sway_freq",
    ),
}


def family_catalog() -> dict[str, str]:
    out = {name: doc for name, (_, doc) in sorted(_FAMILIES.items())}
    out["sampled"] = "natural cubic splines through samples; data: t, centers, radii"
    return out


def make_family(name: str, params: dict | None = None) -> SphereFamily:
    if name == "sampled":
        return sampled_family(**_params_object(params, scalars=False))
    try:
        factory, _ = _FAMILIES[name]
    except KeyError:
        raise DomainError(
            f"unknown family {name!r}; available: {sorted(family_catalog())}"
        ) from None
    return factory(**_params_object(params, scalars=True))


def _natural_cubic(t: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Natural cubic spline through (t, y), as Horner rows of its value and derivatives.

    ``y`` is (N, m): one spline per column, all over the knots ``t``.  On
    [t_k, t_k+1] the spline is ``y_k + b s + c s^2 + d s^3`` with
    ``s = x - t_k``.  The result ``p`` is (N - 1, 4, 3, m): ``sum_j p[k, j] s^j``
    gives the value, first and second derivative.  The knot second
    derivatives m_k solve the tridiagonal system with m_0 = m_last = 0, by
    elimination without pivoting (the system is diagonally dominant).
    """
    h = np.diff(t)
    slope = np.diff(y, axis=0) / h[:, None]
    # row i couples m_i, m_i+1, m_i+2 with weights h_i, 2 (h_i + h_i+1), h_i+1;
    # eliminate on Python floats, since a NumPy call per row costs more than the row
    hs = h.tolist()
    diag = (2.0 * (h[:-1] + h[1:])).tolist()
    rows = (6.0 * np.diff(slope, axis=0)).tolist()
    for i in range(1, len(rows)):
        w = hs[i] / diag[i - 1]
        diag[i] -= w * hs[i]
        rows[i] = [r - w * p for r, p in zip(rows[i], rows[i - 1])]
    rows[-1] = [r / diag[-1] for r in rows[-1]]
    for i in range(len(rows) - 2, -1, -1):
        rows[i] = [(r - hs[i + 1] * q) / diag[i] for r, q in zip(rows[i], rows[i + 1])]
    m = np.zeros_like(y)
    m[1:-1] = rows
    hc = h[:, None]
    b = slope - hc * (2.0 * m[:-1] + m[1:]) / 6.0
    c = 0.5 * m[:-1]
    d = (m[1:] - m[:-1]) / (6.0 * hc)
    zero = np.zeros_like(d)
    horner = [[y[:-1], b, 2.0 * c], [b, 2.0 * c, 6.0 * d], [c, 3.0 * d, zero], [d, zero, zero]]
    return np.stack([np.stack(row, axis=1) for row in horner], axis=1)


def sampled_family(t, centers, radii, name: str = "sampled") -> SphereFamily:
    """Interpolate (t_k, c_k, rho_k) samples with natural cubic splines.

    One spline runs through the stacked columns ``[centers | radii]``.
    Outside the knots the end cubics extrapolate.
    """
    t = np.asarray(t, dtype=float)
    centers = np.asarray(centers, dtype=float)
    radii = np.asarray(radii, dtype=float)
    if t.ndim != 1 or t.size < 4:
        raise DomainError("sampled family needs at least 4 increasing parameter values")
    if centers.ndim != 2 or centers.shape[0] != t.size or radii.shape != (t.size,):
        raise DomainError("centers must be (len(t), n) and radii (len(t),)")
    for label, values in (("parameters", t), ("centers", centers), ("radii", radii)):
        if not np.all(np.isfinite(values)):
            raise DomainError(f"sample {label} must be finite")
    if np.any(np.diff(t) <= 0):
        raise DomainError("sample parameters must be strictly increasing")
    if np.any(radii <= 0):
        raise DomainError("sampled radii must be positive")

    n = centers.shape[1]
    # (4, 3, n + 1, N - 1): the segment axis last, so a batch of points stays last
    poly = np.moveaxis(_natural_cubic(t, np.column_stack([centers, radii])), 0, -1)
    inner = t[1:-1]

    @batched_jet
    def jet2(tv) -> FamilyJet:
        # a (1,) point or a (P, 1) batch; segment k holds t_k <= x < t_k+1, and
        # the end cubics extrapolate
        x = np.asarray(tv, dtype=float)[..., 0]
        k = inner.searchsorted(x, side="right")
        s = x - t[k]
        p0, p1, p2, p3 = poly[..., k]
        value, d1, d2 = ((p3 * s + p2) * s + p1) * s + p0
        return FamilyJet(
            c=value[:n].T,
            dc=d1[:n].T[..., None, :],
            d2c=d2[:n].T[..., None, None, :],
            rho=value[n] if value.ndim > 1 else float(value[n]),
            drho=d1[n:].T,
            d2rho=d2[n:].T[..., None],
        )

    return SphereFamily(
        dim_n=n, r=1, jet2=jet2, domain=[[float(t[0]), float(t[-1])]], name=name
    )


# ---------------------------------------------------------------------------
# symbolic envelopes of planar-spine families (exact canal surfaces)


def family_from_expressions(
    t_sym: sp.Symbol, x_expr, y_expr, rho_expr, dim_n: int, domain, name: str = ""
) -> SphereFamily:
    """One-parameter family with planar spine (x(t), y(t), 0, ...) and radius rho(t)."""
    return _planar_family(_lambdify([t_sym], [x_expr, y_expr, rho_expr]), dim_n, domain, name)


def _planar_family(fn, dim_n: int, domain, name: str) -> SphereFamily:
    """The `_family` of a lambdified ``fn(t)`` whose first three values are x, y and rho."""

    def spine(t):
        x, y, rho = fn(t)[:3]
        return [x, y] + [0.0] * (dim_n - 2), rho

    return _family(spine, dim_n, domain, name)


def planar_canal_surface(
    x_expr,
    y_expr,
    rho_expr,
    t_sym: sp.Symbol,
    dim_n: int = 3,
    t_domain=(0.0, 2.0),
    perturbation=None,
    name: str = "",
) -> tuple[ParametricSurface, SphereFamily]:
    """Exact envelope of a planar-spine sphere family, and the family.

    SymPy only checks the spine ``c(t) = (x(t), y(t), 0, ...)`` and the radius,
    differentiates them once and lambdifies both.  The chart is the closed-form
    characteristic circle over the `taylor` namespace, so its order-3 jet is
    exact: centre c + delta T and radius sqrt(rho^2 - delta^2), delta =
    -rho rho'/|c'|, spanned by the in-plane normal and e_3 (and e_4 for n = 4).
    An optional ``perturbation`` in (t, th), or (t, al, be) for n = 4, is
    added along the member sphere's normal, which destroys the canal property
    while keeping the jet analytic; useful as a negative control.
    """
    if dim_n not in (3, 4):
        raise DomainError("planar canal surfaces are provided for n = 3 and n = 4")
    import sympy as sp

    exprs = [sp.sympify(e) for e in (x_expr, y_expr, rho_expr)]
    spine = _lambdify([t_sym], exprs + [sp.diff(e, t_sym) for e in exprs])
    angles = sp.symbols("th," if dim_n == 3 else "al be", real=True)
    dent = None if perturbation is None else _lambdify([t_sym, *angles], [perturbation])

    def chart(t, a, *b):
        x, y, rho, xp, yp, rp = spine(t)
        s = sqrt(xp * xp + yp * yp)
        delta = -rho * rp / s
        r_m = sqrt(rho * rho - delta * delta)
        # the circle's unit vector: cos(a) N + sin(a) (e_3, or cos(b) e_3 + sin(b) e_4)
        along, across = r_m * cos(a), r_m * sin(a)
        axes = [across * cos(b[0]), across * sin(b[0])] if b else [across]
        offset = [(delta * xp - along * yp) / s, (delta * yp + along * xp) / s, *axes]
        if dent is not None:
            scale = dent(t, a, *b)[0] / rho + 1.0
            offset = [o * scale for o in offset]
        return [x + offset[0], y + offset[1], *offset[2:]]

    polar = [_POLAR_MARGIN, math.pi - _POLAR_MARGIN]
    domain = [list(t_domain)] + [polar] * (dim_n - 3) + [[0.0, TWO_PI]]
    name = name or "planar-canal"
    surface = _surface(chart, dim_n - 1, dim_n, domain, name)
    return surface, _planar_family(spine, dim_n, t_domain, name + "-family")
