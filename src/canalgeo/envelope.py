"""Sphere families, their causal type, and envelope construction.

A family assigns to each parameter point a sphere (c(t), rho(t)).  Its lift
t -> A(t) is a path on the unit quadric of the Minkowski model, and the
causal type of the velocity vectors decides whether a real envelope exists.
Where it does, the envelope is swept by characteristic spheres: the
intersection of each sphere with the zero sets of the derivative conditions.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .config import DEFAULT_TOLERANCES, Tolerances
from .conformal import Causal, PolyVector, inner
from .errors import (
    DegenerateFrameError,
    DimensionMismatch,
    DomainError,
    ImaginaryCharacteristicError,
)
from .jets import ParametricSurface, cell_centers

__all__ = [
    "FamilyJet",
    "SphereFamily",
    "FamilySample",
    "FamilyCausalReport",
    "CharacteristicSphere",
    "EnvelopeMesh",
    "family_lift",
    "causal_classify_family",
    "characteristic_sphere",
    "envelope_surface",
    "envelope_mesh",
]

_STATIONARY_REL = 1e-12
_RANK_REL = 1e-8
_FRAME_FLOOR = 1e-8
_DIRECTION_SCAN = 512  # spine tangents sampled to place the chart reference direction


@dataclass(frozen=True)
class FamilyJet:
    """Second-order data of a sphere family at one parameter point.

    ``c`` is the center, ``dc[p]`` and ``d2c[p, q]`` its derivatives along the
    family parameters, and ``rho``, ``drho``, ``d2rho`` the matching radius
    data.  Shapes: c (n,), dc (r, n), d2c (r, r, n), drho (r,), d2rho (r, r).
    """

    c: np.ndarray
    dc: np.ndarray
    d2c: np.ndarray
    rho: float
    drho: np.ndarray
    d2rho: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.c, dtype=float)
        object.__setattr__(self, "c", c)
        n = c.size
        dc = np.asarray(self.dc, dtype=float)
        r = dc.shape[0]
        if dc.shape != (r, n):
            raise DimensionMismatch(f"dc must be (r, {n}), got {dc.shape}")
        object.__setattr__(self, "dc", dc)
        d2c = np.asarray(self.d2c, dtype=float)
        if d2c.shape != (r, r, n):
            raise DimensionMismatch(f"d2c must be ({r}, {r}, {n}), got {d2c.shape}")
        object.__setattr__(self, "d2c", d2c)
        if not self.rho > 0:
            raise DomainError(f"family radius must be positive, got {self.rho}")
        drho = np.asarray(self.drho, dtype=float).reshape(r)
        d2rho = np.asarray(self.d2rho, dtype=float).reshape(r, r)
        object.__setattr__(self, "drho", drho)
        object.__setattr__(self, "d2rho", d2rho)

    @property
    def r(self) -> int:
        return self.dc.shape[0]


@dataclass(frozen=True)
class SphereFamily:
    """An r-parameter family of spheres in R^n with a second-order jet provider.

    ``jet2`` maps a parameter array of shape (r,) to a FamilyJet.  ``domain``
    is an (r, 2) box of valid parameters.
    """

    dim_n: int
    r: int
    jet2: Callable[[np.ndarray], FamilyJet]
    domain: np.ndarray
    name: str = ""

    def __post_init__(self):
        if self.dim_n < 2:
            raise DomainError("families live in R^n with n >= 2")
        if not 1 <= self.r <= self.dim_n - 1:
            raise DomainError(f"family rank must satisfy 1 <= r <= n-1, got r={self.r}")
        dom = np.asarray(self.domain, dtype=float)
        if dom.shape != (self.r, 2) or np.any(dom[:, 1] <= dom[:, 0]):
            raise DomainError(f"domain must be an ({self.r}, 2) box with positive widths")
        dom.setflags(write=False)
        object.__setattr__(self, "domain", dom)

    def jet_at(self, t) -> FamilyJet:
        t = np.atleast_1d(np.asarray(t, dtype=float))
        if t.shape != (self.r,):
            raise DimensionMismatch(f"expected {self.r} family parameters, got shape {t.shape}")
        jet = self.jet2(t)
        if jet.c.size != self.dim_n or jet.r != self.r:
            raise DimensionMismatch("family jet has inconsistent shapes")
        return jet

    @functools.cached_property
    def _reference_direction(self) -> np.ndarray:
        """A unit vector kept away from the antipode of the whole tangent curve.

        The envelope chart frame is the fixed complement of this vector
        rotated onto the spine tangent; that rotation is smooth as long as
        the tangent never hits the vector's antipode, so pick the candidate
        with the largest clearance.  The scan runs once per family object;
        every envelope chart of the family reuses it.
        """
        ts = cell_centers(self.domain, _DIRECTION_SCAN)[:, 0]
        tangents = np.empty((_DIRECTION_SCAN, self.dim_n))
        for i, tv in enumerate(ts):
            jet = self.jet_at(np.array([tv]))
            d = jet.dc[0]
            nrm = np.linalg.norm(d)
            if nrm <= _FRAME_FLOOR:
                raise DegenerateFrameError("family spine is stationary along the scan")
            tangents[i] = d / nrm
        cands = _direction_candidates(self.dim_n)
        clearance = 1.0 + tangents @ cands.T  # (scan, n_cand)
        worst = clearance.min(axis=0)
        best = int(np.argmax(worst))
        if worst[best] < 0.05:
            raise DegenerateFrameError(
                "spine tangent sweeps too much of the sphere; no smooth chart frame"
            )
        direction = cands[best]
        direction.setflags(write=False)  # shared by every chart of this family
        return direction


# ---------------------------------------------------------------------------
# lifting


def _lift_jet(jet: FamilyJet):
    """Lift a family jet to the quadric: A with (A, A) = 1, plus dA and d2A."""
    n = jet.c.size
    r = jet.r
    c, rho = jet.c, jet.rho
    v = np.empty(n + 2)
    v[0] = 1.0
    v[1 : n + 1] = c
    v[n + 1] = 0.5 * (c @ c - rho**2)

    dv = np.zeros((r, n + 2))
    dv[:, 1 : n + 1] = jet.dc
    dv[:, n + 1] = jet.dc @ c - rho * jet.drho

    d2v = np.zeros((r, r, n + 2))
    d2v[:, :, 1 : n + 1] = jet.d2c
    d2v[:, :, n + 1] = (
        jet.dc @ jet.dc.T
        + jet.d2c @ c
        - np.outer(jet.drho, jet.drho)
        - rho * jet.d2rho
    )

    a = v / rho
    da = dv / rho - np.einsum("p,m->pm", jet.drho / rho**2, v)
    d2a = (
        d2v / rho
        - np.einsum("p,qm->pqm", jet.drho / rho**2, dv)
        - np.einsum("q,pm->pqm", jet.drho / rho**2, dv)
        + np.einsum(
            "pq,m->pqm", 2 * np.outer(jet.drho, jet.drho) / rho**3 - jet.d2rho / rho**2, v
        )
    )
    return a, da, d2a


def family_lift(family: SphereFamily, t) -> tuple[PolyVector, np.ndarray]:
    """Unit-quadric lift A(t) of the family and its velocity rows dA (r, n+2)."""
    a, da, _ = _lift_jet(family.jet_at(t))
    return PolyVector(a), da


# ---------------------------------------------------------------------------
# causal classification


@dataclass(frozen=True)
class FamilySample:
    t: tuple
    kind: str
    value: float
    scale: float

    def to_json(self) -> dict:
        return {"t": list(self.t), "kind": self.kind, "value": self.value}


@dataclass(frozen=True)
class FamilyCausalReport:
    name: str
    dim_n: int
    r: int
    samples: tuple
    verdict: str
    counts: dict

    def to_json(self) -> dict:
        return {
            "family": self.name,
            "n": self.dim_n,
            "r": self.r,
            "verdict": self.verdict,
            "counts": dict(self.counts),
            "samples": [s.to_json() for s in self.samples],
        }


def _classify_velocity(a, da, d2a, tolerances: Tolerances):
    """Per-sample causal kind of the lifted velocity, plus envelope regularity."""
    r = da.shape[0]
    scale = float(np.max(np.einsum("pm,pm->p", da, da))) if r else 0.0
    lift_scale = max(1.0, float(a @ a))
    if scale <= (_STATIONARY_REL * lift_scale) ** 2:
        return "stationary", 0.0, scale, False
    gram = inner(da[:, None, :], da[None, :, :])
    eigs = np.linalg.eigvalsh(gram)
    band = tolerances.lightcone * max(scale, 1e-300)
    value = float(eigs[0])
    if eigs[0] > band:
        kind = Causal.SPACELIKE.value
    elif eigs[0] < -band:
        kind = Causal.TIMELIKE.value
    else:
        kind = Causal.LIGHTLIKE.value

    stack = d2a.reshape(r * r, -1)
    basis = np.vstack([a[None, :], da])
    q, _ = np.linalg.qr(basis.T)
    resid = stack - (stack @ q) @ q.T
    sv = np.linalg.svd(resid, compute_uv=False)
    rank_scale = max(float(sv[0]) if sv.size else 0.0, _RANK_REL * np.linalg.norm(stack), 1e-300)
    nondeg = sv.size >= r and sv[r - 1] > _RANK_REL * rank_scale
    return kind, value, scale, nondeg


def causal_classify_family(
    family: SphereFamily,
    counts=64,
    params: np.ndarray | None = None,
    tolerances: Tolerances = DEFAULT_TOLERANCES,
) -> FamilyCausalReport:
    """Classify the lifted velocity on a parameter grid and give a verdict.

    Verdicts: ``canal`` when every sample is spacelike with the expected
    envelope regularity, ``no_envelope`` when timelike samples occur and no
    spacelike ones, ``mixed`` when both occur, ``degenerate`` when lightlike
    or stationary samples block the classification.
    """
    pts = params if params is not None else cell_centers(family.domain, counts)
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    samples = []
    counts_out = {"spacelike": 0, "timelike": 0, "lightlike": 0, "stationary": 0}
    degenerate_regularity = 0
    for row in pts:
        jet = family.jet_at(row)
        a, da, d2a = _lift_jet(jet)
        kind, value, scale, nondeg = _classify_velocity(a, da, d2a, tolerances)
        counts_out[kind] += 1
        if kind == "spacelike" and not nondeg:
            degenerate_regularity += 1
        samples.append(FamilySample(t=tuple(row), kind=kind, value=value, scale=scale))

    if counts_out["lightlike"] or counts_out["stationary"]:
        verdict = "degenerate"
    elif counts_out["timelike"] and counts_out["spacelike"]:
        verdict = "mixed"
    elif counts_out["timelike"]:
        verdict = "no_envelope"
    elif degenerate_regularity:
        verdict = "degenerate"
    else:
        verdict = "canal"
    return FamilyCausalReport(
        name=family.name,
        dim_n=family.dim_n,
        r=family.r,
        samples=tuple(samples),
        verdict=verdict,
        counts=counts_out,
    )


# ---------------------------------------------------------------------------
# characteristic spheres and frames


@dataclass(frozen=True)
class CharacteristicSphere:
    """Sphere of dimension m = n - r - 1 where the envelope touches one member."""

    t: tuple
    center: np.ndarray
    radius: float
    m: int
    member_center: np.ndarray
    member_radius: float

    def to_json(self) -> dict:
        return {
            "t": list(self.t),
            "center": [float(x) for x in self.center],
            "radius": self.radius,
            "dimension": self.m,
        }


@dataclass(frozen=True)
class _CharFrame:
    center: np.ndarray
    radius: float
    w: np.ndarray  # (n - r, n) orthonormal basis of the characteristic plane


def _characteristic_core(jet: FamilyJet, t):
    """Circle center and radius, and the orthonormal spine rows, of the member jet at t."""
    cmat = jet.dc
    norms = np.linalg.norm(cmat, axis=1)
    if np.any(norms <= _FRAME_FLOOR * max(1.0, float(np.max(norms, initial=0.0)))):
        raise DegenerateFrameError("family spine has (numerically) stationary directions")
    y0, *_ = np.linalg.lstsq(cmat, -jet.rho * jet.drho, rcond=None)
    rad2 = jet.rho**2 - y0 @ y0
    band = 1e-12 * jet.rho**2
    if rad2 < -band:
        raise ImaginaryCharacteristicError(
            f"characteristic sphere is imaginary at t={tuple(np.atleast_1d(t))}"
        )
    radius = math.sqrt(max(rad2, 0.0))
    center = jet.c + y0

    q, rr = np.linalg.qr(cmat.T)
    signs = np.sign(np.diag(rr))
    signs[signs == 0] = 1.0
    tangent = (q * signs).T  # (r, n), orthonormal, deterministic
    return center, radius, tangent


def _characteristic_frame(jet: FamilyJet, t) -> _CharFrame:
    """Center, radius and an orthonormal basis of the contact plane.

    The characteristic sphere at t is the set of points of the member sphere
    whose offset from the center is orthogonal to every dc_p with prescribed
    projections -rho drho_p.  Each complement row is seeded by the coordinate
    axis with the largest component off the span built so far.  ``jet`` is
    the member jet at t.
    """
    n, r = jet.c.size, jet.r
    center, radius, tangent = _characteristic_core(jet, t)

    basis = list(tangent)
    remaining = set(range(n))
    for _ in range(n - r):
        best_axis, best_norm, best_vec = -1, -1.0, None
        for axis in sorted(remaining):
            e = np.zeros(n)
            e[axis] = 1.0
            for b in basis:
                e -= (e @ b) * b
            nrm = np.linalg.norm(e)
            if nrm > max(best_norm, _FRAME_FLOOR):
                best_axis, best_norm, best_vec = axis, nrm, e / nrm
        if best_vec is None:
            raise DegenerateFrameError(
                "no coordinate axis has a usable component off the tangent span"
            )
        remaining.discard(best_axis)
        basis.append(best_vec)

    return _CharFrame(center=center, radius=radius, w=np.array(basis[r:]))


def characteristic_sphere(family: SphereFamily, t) -> CharacteristicSphere:
    jet = family.jet_at(t)
    center, radius, _ = _characteristic_core(jet, t)
    return CharacteristicSphere(
        t=tuple(np.atleast_1d(np.asarray(t, dtype=float))),
        center=center,
        radius=radius,
        m=family.dim_n - family.r - 1,
        member_center=jet.c,
        member_radius=jet.rho,
    )


# ---------------------------------------------------------------------------
# envelope charts and meshes


def _spherical_unit(angles: np.ndarray) -> np.ndarray:
    """Points on the unit sphere S^m from m angles (first m-1 polar, last azimuthal).

    Accepts a single angle row (m,) or a batch (k, m); returns (m+1,) or (k, m+1).
    """
    angles = np.asarray(angles, dtype=float)
    single = angles.ndim == 1
    rows = np.atleast_2d(angles)
    k, m = rows.shape
    out = np.empty((k, m + 1))
    sin_prod = np.ones(k)
    for i in range(m):
        out[:, i] = sin_prod * np.cos(rows[:, i])
        sin_prod = sin_prod * np.sin(rows[:, i])
    out[:, m] = sin_prod
    return out[0] if single else out


def _direction_candidates(n: int) -> np.ndarray:
    """Fixed, deterministic unit directions used to seed the chart frame."""
    dirs = []
    for i in range(n):
        e = np.zeros(n)
        e[i] = 1.0
        dirs.extend([e, -e])
    for i in range(n):
        for j in range(i + 1, n):
            for si in (1.0, -1.0):
                for sj in (1.0, -1.0):
                    e = np.zeros(n)
                    e[i], e[j] = si, sj
                    dirs.append(e / math.sqrt(2.0))
    for signs in itertools.product((1.0, -1.0), repeat=n):
        dirs.append(np.array(signs) / math.sqrt(n))
    return np.array(dirs)


def _rotated_complement(tau: np.ndarray, v_ref: np.ndarray, u_ref: np.ndarray) -> np.ndarray:
    """Complement basis of v_ref carried onto the complement of tau.

    Applies the minimal rotation taking v_ref to tau; closed form, smooth in
    tau away from the antipode of v_ref.
    """
    denom = 1.0 + float(tau @ v_ref)
    if denom < 1e-9:
        raise DegenerateFrameError("spine tangent reached the reference antipode")
    coef = (u_ref @ (v_ref + tau)) / denom  # (n-1,)
    return u_ref - np.outer(coef, v_ref + tau)


def envelope_surface(family: SphereFamily, name: str = "") -> ParametricSurface:
    """Envelope of a one-parameter family as a parametric chart (t, angles).

    The chart is exact; it carries no analytic jet, so `evaluate_jet` takes
    its derivatives by finite differences at the default steps.  Use the
    analytic catalog surfaces when derivative accuracy is critical.  The
    angular frame is globally smooth in t (a fixed basis rotated onto the
    spine tangent), so finite differences of any order stay meaningful.
    """
    if family.r != 1:
        raise DomainError("envelope charts are provided for one-parameter families")
    n = family.dim_n
    lo, hi = family.domain[0]
    v_ref = family._reference_direction
    # fixed orthonormal complement of v_ref, deterministic
    _, _, vt = np.linalg.svd(v_ref.reshape(1, -1))
    u_ref = vt[1:]

    cache: dict[float, tuple] = {}

    def frame_at(tv: float) -> tuple:
        fr = cache.get(tv)
        if fr is None:
            if len(cache) > 512:
                cache.clear()
            t = np.array([tv])
            center, radius, tangent = _characteristic_core(family.jet_at(t), t)
            w = _rotated_complement(tangent[0], v_ref, u_ref)
            fr = (center, radius, w)
            cache[tv] = fr
        return fr

    def chart(u):
        u = np.asarray(u, dtype=float)
        single = u.ndim == 1
        pts = np.atleast_2d(u)
        out = np.empty((pts.shape[0], n))
        units = _spherical_unit(pts[:, 1:])
        uniq, inv = np.unique(pts[:, 0], return_inverse=True)
        for gi, tv in enumerate(uniq):
            center, radius, w = frame_at(float(tv))
            mask = inv == gi
            # one (1, n-1) @ (n-1, n) product per row, as a single-point call
            # makes: a batched matmul may take another kernel and round differently
            out[mask] = center + radius * (units[mask][:, None, :] @ w)[:, 0]
        return out[0] if single else out

    domain = [[lo, hi]]
    domain += [[0.35, math.pi - 0.35] for _ in range(n - 3)]
    domain += [[0.0, 2.0 * math.pi]]
    return ParametricSurface(
        dim_n=n,
        chart=chart,
        domain=domain,
        name=name or (family.name + "-envelope" if family.name else "envelope"),
    )


@dataclass(frozen=True)
class EnvelopeMesh:
    vertices: np.ndarray
    normals: np.ndarray
    params: np.ndarray
    faces: np.ndarray | None
    name: str


def envelope_mesh(
    family: SphereFamily,
    t_count: int = 256,
    angle_count: int = 64,
    name: str = "",
) -> EnvelopeMesh:
    """Sample the envelope of a one-parameter family into a mesh.

    For n = 3 the mesh carries triangle faces (closed in the angular
    direction, open along the spine); higher dimensions get vertices,
    normals and parameters only.
    """
    if family.r != 1:
        raise DomainError("meshes are generated for one-parameter families")
    n = family.dim_n
    surf = envelope_surface(family, name=name)
    lo, hi = family.domain[0]
    ts = np.linspace(lo, hi, t_count)
    thetas = np.linspace(0.0, 2.0 * math.pi, angle_count, endpoint=False)
    polar_axes = [
        np.linspace(0.35, math.pi - 0.35, max(angle_count // 2, 4)) for _ in range(n - 3)
    ]
    axes = [ts] + polar_axes + [thetas]
    mesh = np.meshgrid(*axes, indexing="ij")
    grid = np.stack([g.ravel() for g in mesh], axis=-1)

    # the grid is t-major: each t owns one contiguous block of rows, so one
    # member jet and one chart call serve the whole block
    block = math.prod(len(a) for a in axes[1:])
    verts = np.empty((grid.shape[0], n))
    normals = np.empty_like(verts)
    for k in range(t_count):
        rows = slice(k * block, (k + 1) * block)
        jet = family.jet_at(ts[k : k + 1])
        verts[rows] = surf.chart(grid[rows])
        normals[rows] = (verts[rows] - jet.c) / jet.rho

    faces = None
    if n == 3:
        i = np.arange(t_count - 1)[:, None] * angle_count
        j = np.arange(angle_count)
        a, b = i + j, i + (j + 1) % angle_count
        c, d = a + angle_count, b + angle_count
        faces = np.stack([np.stack([a, b, d], -1), np.stack([a, d, c], -1)], axis=2).reshape(-1, 3)

    return EnvelopeMesh(
        vertices=verts,
        normals=normals,
        params=grid,
        faces=faces,
        name=name or (family.name + "-envelope" if family.name else "envelope"),
    )
