"""Built-in surfaces and sphere families with exact derivative providers.

Catalog charts are defined symbolically and differentiated through third
order once per instantiation, so the analytic jet path is exact to machine
precision.  Sphere families carry hand-written first and second derivatives
(simple trigonometric spines); sampled families interpolate with natural
cubic splines.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np
import sympy as sp
from scipy.interpolate import CubicSpline, RectBivariateSpline

from .envelope import FamilyJet, SphereFamily
from .errors import DomainError
from .jets import ParametricSurface

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
]

TWO_PI = 2.0 * math.pi


# ---------------------------------------------------------------------------
# symbolic jet machinery


def _index_pairs(k: int):
    return [(a, b) for a in range(k) for b in range(a, k)]


def _index_triples(k: int):
    return [(a, b, c) for a in range(k) for b in range(a, k) for c in range(b, k)]


def surface_from_expressions(
    params: Sequence[sp.Symbol],
    exprs: Sequence[sp.Expr],
    domain,
    name: str = "",
) -> ParametricSurface:
    """Build a surface whose jet is generated by symbolic differentiation."""
    params = list(params)
    exprs = [sp.sympify(e) for e in exprs]
    k, n = len(params), len(exprs)
    if n != k + 1:
        raise DomainError(f"chart must map {n - 1} parameters into R^{n}")

    d1 = [[sp.diff(e, a) for e in exprs] for a in params]
    pairs = _index_pairs(k)
    triples = _index_triples(k)
    d2 = {(a, b): [sp.diff(e, params[a], params[b]) for e in exprs] for a, b in pairs}
    d3 = {
        (a, b, c): [sp.diff(e, params[a], params[b], params[c]) for e in exprs]
        for a, b, c in triples
    }

    flat: list[sp.Expr] = list(exprs)
    for row in d1:
        flat.extend(row)
    for key in pairs:
        flat.extend(d2[key])
    for key in triples:
        flat.extend(d3[key])

    jet_fn = sp.lambdify(params, flat, modules="numpy", cse=True)
    chart_fn = sp.lambdify(params, exprs, modules="numpy", cse=True)

    def chart(u):
        u = np.asarray(u, dtype=float)
        single = u.ndim == 1
        pts = np.atleast_2d(u)
        cols = chart_fn(*(pts[:, i] for i in range(k)))
        cols = [np.broadcast_to(np.asarray(c, dtype=float), (pts.shape[0],)) for c in cols]
        out = np.stack(cols, axis=-1)
        return out[0] if single else out

    def jet(u):
        vals = np.asarray(jet_fn(*u), dtype=float)
        pos = 0
        p = vals[pos : pos + n]
        pos += n
        j1 = vals[pos : pos + k * n].reshape(k, n)
        pos += k * n
        j2 = np.empty((k, k, n))
        for a, b in pairs:
            j2[a, b] = vals[pos : pos + n]
            j2[b, a] = j2[a, b]
            pos += n
        j3 = np.empty((k, k, k, n))
        for a, b, c in triples:
            block = vals[pos : pos + n]
            for perm in {(a, b, c), (a, c, b), (b, a, c), (b, c, a), (c, a, b), (c, b, a)}:
                j3[perm] = block
            pos += n
        return p, j1, j2, j3

    return ParametricSurface(dim_n=n, chart=chart, jet=jet, domain=domain, name=name)


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
        inner_u = u @ q.T + b
        return surface.chart(inner_u) @ rot.T + s

    def jet(u):
        p, d1, d2, d3 = surface.jet(q @ np.asarray(u, dtype=float) + b)
        p2 = rot @ p + s
        d1n = np.einsum("aA,am,Nm->AN", q, d1, rot)
        d2n = np.einsum("aA,bB,abm,Nm->ABN", q, q, d2, rot)
        d3n = np.einsum("aA,bB,cC,abcm,Nm->ABCN", q, q, q, d3, rot)
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
    u, v = sp.symbols("u v", real=True)
    exprs = [
        radius * sp.cos(u) * sp.cos(v),
        radius * sp.sin(u) * sp.cos(v),
        radius * sp.sin(v),
    ]
    return surface_from_expressions(
        [u, v], exprs, domain=[[0.0, TWO_PI], [-1.2, 1.2]], name=f"sphere(r={radius:g})"
    )


def _plane() -> ParametricSurface:
    u, v = sp.symbols("u v", real=True)
    return surface_from_expressions(
        [u, v], [u, v, sp.Integer(0)], domain=[[-1.0, 1.0], [-1.0, 1.0]], name="plane"
    )


def _cylinder(radius: float = 1.0) -> ParametricSurface:
    radius = float(radius)
    if radius <= 0:
        raise DomainError("cylinder radius must be positive")
    u, v = sp.symbols("u v", real=True)
    exprs = [radius * sp.cos(u), radius * sp.sin(u), v]
    return surface_from_expressions(
        [u, v], exprs, domain=[[0.0, TWO_PI], [-1.0, 1.0]], name=f"cylinder(r={radius:g})"
    )


def _torus(major: float = 2.0, minor: float = 1.0) -> ParametricSurface:
    major, minor = float(major), float(minor)
    if not (0 < minor < major):
        raise DomainError("torus needs 0 < minor < major")
    u, v = sp.symbols("u v", real=True)
    ring = major + minor * sp.cos(v)
    exprs = [ring * sp.cos(u), ring * sp.sin(u), minor * sp.sin(v)]
    return surface_from_expressions(
        [u, v],
        exprs,
        domain=[[0.0, TWO_PI], [0.0, TWO_PI]],
        name=f"torus({major:g},{minor:g})",
    )


def _ellipsoid(a: float = 3.0, b: float = 2.0, c: float = 1.0) -> ParametricSurface:
    a, b, c = float(a), float(b), float(c)
    if min(a, b, c) <= 0:
        raise DomainError("ellipsoid semi-axes must be positive")
    u, v = sp.symbols("u v", real=True)
    exprs = [a * sp.cos(u) * sp.cos(v), b * sp.sin(u) * sp.cos(v), c * sp.sin(v)]
    return surface_from_expressions(
        [u, v],
        exprs,
        domain=[[0.0, TWO_PI], [-1.2, 1.2]],
        name=f"ellipsoid({a:g},{b:g},{c:g})",
    )


def _tube4(major: float = 2.0, minor: float = 0.5) -> ParametricSurface:
    """Hypersurface of R^4 swept by 2-spheres centered on a circle."""
    major, minor = float(major), float(minor)
    if not (0 < minor < major):
        raise DomainError("tube needs 0 < minor < major")
    t, ph, th = sp.symbols("t ph th", real=True)
    er = [sp.cos(t), sp.sin(t), 0, 0]
    unit = [
        sp.cos(ph) * er[0],
        sp.cos(ph) * er[1],
        sp.sin(ph) * sp.cos(th),
        sp.sin(ph) * sp.sin(th),
    ]
    exprs = [major * er[i] + minor * unit[i] for i in range(4)]
    return surface_from_expressions(
        [t, ph, th],
        exprs,
        domain=[[0.0, TWO_PI], [0.35, math.pi - 0.35], [0.0, TWO_PI]],
        name=f"tube4({major:g},{minor:g})",
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
    spline = RectBivariateSpline(xs, ys, z, kx=5, ky=5)

    def chart(u):
        u = np.asarray(u, dtype=float)
        single = u.ndim == 1
        pts = np.atleast_2d(u)
        h = spline.ev(pts[:, 0], pts[:, 1])
        out = np.stack([pts[:, 0], pts[:, 1], h], axis=-1)
        return out[0] if single else out

    def jet(u):
        x, y = float(u[0]), float(u[1])
        d = lambda dx, dy: float(spline.ev(x, y, dx=dx, dy=dy))
        p = np.array([x, y, d(0, 0)])
        d1 = np.array([[1.0, 0.0, d(1, 0)], [0.0, 1.0, d(0, 1)]])
        d2 = np.zeros((2, 2, 3))
        d2[0, 0, 2] = d(2, 0)
        d2[0, 1, 2] = d2[1, 0, 2] = d(1, 1)
        d2[1, 1, 2] = d(0, 2)
        d3 = np.zeros((2, 2, 2, 3))
        d3[0, 0, 0, 2] = d(3, 0)
        d3[1, 1, 1, 2] = d(0, 3)
        for idx in [(0, 0, 1), (0, 1, 0), (1, 0, 0)]:
            d3[idx + (2,)] = d(2, 1)
        for idx in [(0, 1, 1), (1, 0, 1), (1, 1, 0)]:
            d3[idx + (2,)] = d(1, 2)
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


def _params_object(params) -> dict:
    """Keyword parameters of a catalog entry: an object, or None for none."""
    if params is not None and not isinstance(params, dict):
        raise DomainError("params must be an object")
    return dict(params or {})


def surface_catalog() -> dict[str, str]:
    out = {name: doc for name, (_, doc) in sorted(_SURFACES.items())}
    out["graph"] = "height field from samples; data: xs, ys, heights"
    return out


def make_surface(name: str, params: dict | None = None) -> ParametricSurface:
    params = _params_object(params)
    if name == "graph":
        return graph_surface(**params)
    try:
        factory, _ = _SURFACES[name]
    except KeyError:
        raise DomainError(
            f"unknown surface {name!r}; available: {sorted(surface_catalog())}"
        ) from None
    return factory(**params)


# ---------------------------------------------------------------------------
# sphere family catalog (one-parameter families, analytic jets to order two)


def _family(
    name: str,
    dim_n: int,
    center,
    d_center,
    dd_center,
    radius,
    d_radius,
    dd_radius,
    domain,
) -> SphereFamily:
    def jet2(t) -> FamilyJet:
        tv = float(np.asarray(t).reshape(-1)[0])
        return FamilyJet(
            c=np.asarray(center(tv), dtype=float),
            dc=np.asarray(d_center(tv), dtype=float).reshape(1, dim_n),
            d2c=np.asarray(dd_center(tv), dtype=float).reshape(1, 1, dim_n),
            rho=float(radius(tv)),
            drho=np.array([float(d_radius(tv))]),
            d2rho=np.array([[float(dd_radius(tv))]]),
        )

    return SphereFamily(dim_n=dim_n, r=1, jet2=jet2, domain=[[domain[0], domain[1]]], name=name)


def _circle_tube(major: float = 2.0, rho: float = 0.5) -> SphereFamily:
    major, rho = float(major), float(rho)
    if major <= 0 or rho <= 0:
        raise DomainError("circle-tube needs positive major radius and rho")
    return _family(
        f"circle-tube({major:g},{rho:g})",
        3,
        lambda t: [major * math.cos(t), major * math.sin(t), 0.0],
        lambda t: [-major * math.sin(t), major * math.cos(t), 0.0],
        lambda t: [-major * math.cos(t), -major * math.sin(t), 0.0],
        lambda t: rho,
        lambda t: 0.0,
        lambda t: 0.0,
        (0.0, TWO_PI),
    )


def _line_cone(slope: float = 0.5) -> SphereFamily:
    slope = float(slope)
    if not (0 < slope < 1):
        raise DomainError("line-cone slope must lie in (0, 1) to stay spacelike")
    return _family(
        f"line-cone({slope:g})",
        3,
        lambda t: [t, 0.0, 0.0],
        lambda t: [1.0, 0.0, 0.0],
        lambda t: [0.0, 0.0, 0.0],
        lambda t: slope * t,
        lambda t: slope,
        lambda t: 0.0,
        (0.5, 2.0),
    )


def _helix_tube(major: float = 2.0, pitch: float = 0.5, rho: float = 0.5) -> SphereFamily:
    major, pitch, rho = float(major), float(pitch), float(rho)
    if major <= 0 or rho <= 0:
        raise DomainError("helix-tube needs positive major radius and rho")
    return _family(
        f"helix-tube({major:g},{pitch:g},{rho:g})",
        3,
        lambda t: [major * math.cos(t), major * math.sin(t), pitch * t],
        lambda t: [-major * math.sin(t), major * math.cos(t), pitch],
        lambda t: [-major * math.cos(t), -major * math.sin(t), 0.0],
        lambda t: rho,
        lambda t: 0.0,
        lambda t: 0.0,
        (0.0, TWO_PI),
    )


def _r4_circle(major: float = 2.0, rho: float = 0.5) -> SphereFamily:
    major, rho = float(major), float(rho)
    if major <= 0 or rho <= 0:
        raise DomainError("r4-circle needs positive major radius and rho")
    return _family(
        f"r4-circle({major:g},{rho:g})",
        4,
        lambda t: [major * math.cos(t), major * math.sin(t), 0.0, 0.0],
        lambda t: [-major * math.sin(t), major * math.cos(t), 0.0, 0.0],
        lambda t: [-major * math.cos(t), -major * math.sin(t), 0.0, 0.0],
        lambda t: rho,
        lambda t: 0.0,
        lambda t: 0.0,
        (0.0, TWO_PI),
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
        f"wobble-tube({rho0:g},{amp:g},{freq:g},{sway:g},{sway_freq:g})",
        3,
        lambda t: [t, sway * math.sin(sway_freq * t), 0.0],
        lambda t: [1.0, sway * sway_freq * math.cos(sway_freq * t), 0.0],
        lambda t: [0.0, -sway * sway_freq**2 * math.sin(sway_freq * t), 0.0],
        lambda t: rho0 + amp * math.sin(freq * t),
        lambda t: amp * freq * math.cos(freq * t),
        lambda t: -amp * freq**2 * math.sin(freq * t),
        (0.0, TWO_PI),
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
    params = _params_object(params)
    if name == "sampled":
        return sampled_family(**params)
    try:
        factory, _ = _FAMILIES[name]
    except KeyError:
        raise DomainError(
            f"unknown family {name!r}; available: {sorted(family_catalog())}"
        ) from None
    return factory(**params)


def sampled_family(t, centers, radii, name: str = "sampled") -> SphereFamily:
    """Interpolate (t_k, c_k, rho_k) samples with natural cubic splines."""
    t = np.asarray(t, dtype=float)
    centers = np.asarray(centers, dtype=float)
    radii = np.asarray(radii, dtype=float)
    if t.ndim != 1 or t.size < 4:
        raise DomainError("sampled family needs at least 4 increasing parameter values")
    if centers.ndim != 2 or centers.shape[0] != t.size or radii.shape != (t.size,):
        raise DomainError("centers must be (len(t), n) and radii (len(t),)")
    if np.any(np.diff(t) <= 0):
        raise DomainError("sample parameters must be strictly increasing")
    if np.any(radii <= 0):
        raise DomainError("sampled radii must be positive")
    n = centers.shape[1]
    c_spl = CubicSpline(t, centers, bc_type="natural")
    r_spl = CubicSpline(t, radii, bc_type="natural")

    def jet2(tv) -> FamilyJet:
        tv = float(np.asarray(tv).reshape(-1)[0])
        return FamilyJet(
            c=c_spl(tv),
            dc=c_spl(tv, 1).reshape(1, n),
            d2c=c_spl(tv, 2).reshape(1, 1, n),
            rho=float(r_spl(tv)),
            drho=np.array([float(r_spl(tv, 1))]),
            d2rho=np.array([[float(r_spl(tv, 2))]]),
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
    x_expr, y_expr, rho_expr = sp.sympify(x_expr), sp.sympify(y_expr), sp.sympify(rho_expr)
    rows = [x_expr, y_expr] + [sp.Integer(0)] * (dim_n - 2)
    flat = []
    for order in range(3):
        flat.extend(sp.diff(e, t_sym, order) for e in rows)
    for order in range(3):
        flat.append(sp.diff(rho_expr, t_sym, order))
    fn = sp.lambdify([t_sym], flat, modules="numpy", cse=True)

    def jet2(tv) -> FamilyJet:
        tv = float(np.asarray(tv).reshape(-1)[0])
        vals = np.asarray(fn(tv), dtype=float)
        n = dim_n
        return FamilyJet(
            c=vals[0:n],
            dc=vals[n : 2 * n].reshape(1, n),
            d2c=vals[2 * n : 3 * n].reshape(1, 1, n),
            rho=float(vals[3 * n]),
            drho=np.array([vals[3 * n + 1]]),
            d2rho=np.array([[vals[3 * n + 2]]]),
        )

    return SphereFamily(
        dim_n=dim_n, r=1, jet2=jet2, domain=[[domain[0], domain[1]]], name=name
    )


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
    """Exact envelope of a planar-spine sphere family, as a symbolic chart.

    The spine ``c(t) = (x(t), y(t), 0, ...)`` keeps the characteristic-plane
    basis in closed form, so the envelope chart and its jets are exact.  An
    optional ``perturbation`` expression in (t, angle) is added along the
    radial direction, which destroys the canal property while keeping the jet
    analytic; useful as a negative control.
    """
    if dim_n not in (3, 4):
        raise DomainError("planar canal surfaces are provided for n = 3 and n = 4")
    x_expr, y_expr, rho_expr = sp.sympify(x_expr), sp.sympify(y_expr), sp.sympify(rho_expr)
    xp, yp = sp.diff(x_expr, t_sym), sp.diff(y_expr, t_sym)
    rp = sp.diff(rho_expr, t_sym)
    speed = sp.sqrt(xp**2 + yp**2)
    delta = -rho_expr * rp / speed
    r_m = sp.sqrt(rho_expr**2 - delta**2)
    tangent = [xp / speed, yp / speed] + [sp.Integer(0)] * (dim_n - 2)
    w1 = [-yp / speed, xp / speed] + [sp.Integer(0)] * (dim_n - 2)
    c = [x_expr, y_expr] + [sp.Integer(0)] * (dim_n - 2)
    center = [c[i] + delta * tangent[i] for i in range(dim_n)]

    if dim_n == 3:
        th = sp.Symbol("th", real=True)
        w2 = [sp.Integer(0), sp.Integer(0), sp.Integer(1)]
        unit = [sp.cos(th) * w1[i] + sp.sin(th) * w2[i] for i in range(3)]
        params = [t_sym, th]
        domain = [list(t_domain), [0.0, TWO_PI]]
    else:
        al, be = sp.symbols("al be", real=True)
        w2 = [sp.Integer(0)] * 2 + [sp.Integer(1), sp.Integer(0)]
        w3 = [sp.Integer(0)] * 3 + [sp.Integer(1)]
        unit = [
            sp.cos(al) * w1[i] + sp.sin(al) * (sp.cos(be) * w2[i] + sp.sin(be) * w3[i])
            for i in range(4)
        ]
        params = [t_sym, al, be]
        domain = [list(t_domain), [0.35, math.pi - 0.35], [0.0, TWO_PI]]

    exprs = [center[i] + r_m * unit[i] for i in range(dim_n)]
    if perturbation is not None:
        bump = sp.sympify(perturbation)
        radial = [(exprs[i] - c[i]) / rho_expr for i in range(dim_n)]
        exprs = [exprs[i] + bump * radial[i] for i in range(dim_n)]

    surface = surface_from_expressions(params, exprs, domain=domain, name=name or "planar-canal")
    family = family_from_expressions(
        t_sym, x_expr, y_expr, rho_expr, dim_n, t_domain, name=(name or "planar-canal") + "-family"
    )
    return surface, family
