"""Sphere families, their causal type, and envelope construction.

A family assigns to each parameter point a sphere (c(t), rho(t)).  Its lift
t -> A(t) is a path on the unit quadric of the Minkowski model, and the
causal type of the velocity vectors decides whether a real envelope exists.
Where it does, the envelope is swept by characteristic spheres: the
intersection of each sphere with the zero sets of the derivative conditions.
One closed-form batched pass, `_characteristic`, gives them to the envelope
chart, the meshes, `characteristic_sphere` and the adapted frames of `focal`.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import namedtuple
from dataclasses import dataclass, fields
from typing import Callable

import numpy as np

from .config import DEFAULT_TOLERANCES, Tolerances
from .conformal import Causal, PolyVector
from .errors import (
    DegenerateFrameError,
    DimensionMismatch,
    DomainError,
    ImaginaryCharacteristicError,
)
from .jets import (
    ParametricSurface,
    _grid_counts,
    _row_dots,
    _RowErrors,
    cell_centers,
    parameter_grid,
)
from .taylor import _coefficients, _derivatives, _from_derivatives

__all__ = [
    "FamilyJet",
    "SphereFamily",
    "batched_jet",
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
_DIRECTION_SCAN = 128  # spine tangents sampled to place the chart reference direction
_POLAR_MARGIN = 0.35  # polar angles keep off the poles, where the spherical chart degenerates
_NOT_FINITE = "family jet is not finite at t={t}"


@dataclass(frozen=True)
class FamilyJet:
    """Second-order data of a sphere family at one parameter point, or at P of them.

    ``c`` is the center, ``dc[p]`` and ``d2c[p, q]`` its derivatives along the
    family parameters, and ``rho``, ``drho``, ``d2rho`` the matching radius
    data.  Shapes: c (n,), dc (r, n), d2c (r, r, n), drho (r,), d2rho (r, r).
    A batched jet (`SphereFamily.jets_at`) puts a leading P axis on every
    field, ``rho`` included.
    """

    c: np.ndarray
    dc: np.ndarray
    d2c: np.ndarray
    rho: float
    drho: np.ndarray
    d2rho: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.c, dtype=float)
        lead, n = c.shape[:-1], c.shape[-1]
        dc = np.asarray(self.dc, dtype=float)
        r = dc.shape[-2] if dc.ndim == c.ndim + 1 else -1
        if dc.shape != lead + (r, n):
            raise DimensionMismatch(f"dc must be (r, {n}), got {dc.shape}")
        d2c = np.asarray(self.d2c, dtype=float)
        if d2c.shape != lead + (r, r, n):
            raise DimensionMismatch(f"d2c must be ({r}, {r}, {n}), got {d2c.shape}")
        rho = np.asarray(self.rho, dtype=float).reshape(lead)
        if lead:
            object.__setattr__(self, "rho", rho)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "dc", dc)
        object.__setattr__(self, "d2c", d2c)
        drho = np.asarray(self.drho, dtype=float).reshape(lead + (r,))
        object.__setattr__(self, "drho", drho)
        d2rho = np.asarray(self.d2rho, dtype=float).reshape(lead + (r, r))
        object.__setattr__(self, "d2rho", d2rho)

    @property
    def r(self) -> int:
        return self.dc.shape[-2]

    @staticmethod
    def split(p, d1, d2) -> "FamilyJet":
        """The jet of stacked [c | rho] tensors p (n+1,), d1 (r, n+1) and d2 (r, r, n+1), each
        with a leading P axis or none."""
        rho = p[..., -1] if p.ndim > 1 else float(p[-1])
        return FamilyJet(p[..., :-1], d1[..., :-1], d2[..., :-1], rho, d1[..., -1], d2[..., -1])

    @staticmethod
    def stack(jets) -> "FamilyJet":
        """Single-point jets as one batched jet."""
        return FamilyJet(*(np.stack([getattr(j, f.name) for j in jets]) for f in fields(FamilyJet)))


def batched_jet(provider):
    """Mark a family jet provider that also maps a (P, r) array to one batched `FamilyJet`."""
    provider.batched = True
    return provider


@dataclass(frozen=True)
class SphereFamily:
    """An r-parameter family of spheres in R^n with a second-order jet provider.

    ``jet2`` maps a parameter array of shape (r,) to a FamilyJet.  A provider
    marked with `batched_jet` also maps a (P, r) array to one FamilyJet with
    a leading P axis, so `jets_at` takes a whole batch in one call; any other
    provider is called once per row.  A provider need not check its rows:
    `jets_at` names each row whose jet is not finite or whose radius is not
    positive.  ``domain`` is an (r, 2) box of valid parameters.
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
        """The family jet at one parameter point: row 0 of `jets_at`."""
        jet = self.jets_at(np.atleast_1d(np.asarray(t, dtype=float))[None])
        return FamilyJet(*(getattr(jet, f.name)[0] for f in fields(FamilyJet)))

    def jets_at(self, ts) -> FamilyJet:
        """The family jet at every row of a (P, r) parameter array, with a leading P axis.

        The rows must be finite, and at least one.  A failing row raises the first error of
        the `_row_jets` record: the error that the first failing row raises alone.
        """
        jet, errors = self._row_jets(ts)
        errors.raise_first()
        return jet

    def _row_jets(self, ts) -> tuple[FamilyJet, _RowErrors]:
        """`jets_at` with each failing row's error recorded, checked in one row's order: a
        finite jet, then radius > 0; a failed row computes on.  A batched provider takes every
        row in one call, any other provider one row a call; a provider's own raise propagates."""
        ts = parameter_grid(ts, self.r)
        errors = _RowErrors(ts)
        if getattr(self.jet2, "batched", False):
            jet = self.jet2(ts)
        else:
            jet = FamilyJet.stack([self.jet2(t) for t in ts])
        if jet.c.shape != (len(ts), self.dim_n) or jet.r != self.r:
            raise DimensionMismatch("family jet has inconsistent shapes")
        values = [getattr(jet, f.name).reshape(len(ts), -1) for f in fields(FamilyJet)]
        errors.check(~np.isfinite(np.hstack(values)).all(axis=1), DomainError, _NOT_FINITE)
        errors.check(~(jet.rho > 0), DomainError, "family radius must be positive at t={t}")
        return jet, errors

    @functools.cached_property
    def _reference_frame(self) -> tuple[np.ndarray, np.ndarray]:
        """A unit vector v kept away from the antipode of the whole tangent curve, and
        a fixed orthonormal basis (n - 1, n) of its complement.

        `_characteristic` carries that basis onto the characteristic plane
        at t by the minimal rotation taking v to the spine tangent; this is
        the one plane basis of the envelope chart, its meshes and the
        adapted frames of `focal`.  The rotation is smooth as long as the
        tangent never hits the antipode of v, so v is the candidate with the
        largest clearance 1 + tau.v over the spine, as one batched jet at
        ``_DIRECTION_SCAN`` cell centres estimates it.  A tangent within
        ``_FRAME_FLOOR`` of the scan's largest is stationary.  The scan runs
        once per family object.
        """
        tangents = self.jets_at(cell_centers(self.domain, _DIRECTION_SCAN)).dc[:, 0]
        norms = np.sqrt(_row_dots(tangents, tangents))
        if np.any(norms <= _FRAME_FLOOR * norms.max()):
            raise DegenerateFrameError("family spine is stationary along the scan")
        tangents = tangents / norms[:, None]
        cands = _direction_candidates(self.dim_n)
        clearance = 1.0 + tangents @ cands.T  # (scan, n_cand)
        worst = clearance.min(axis=0)
        best = int(np.argmax(worst))
        if worst[best] < 0.05:
            raise DegenerateFrameError(
                "spine tangent sweeps too much of the sphere; no smooth chart frame"
            )
        direction = cands[best]
        complement = np.linalg.svd(direction.reshape(1, -1))[2][1:]
        for x in (direction, complement):
            x.setflags(write=False)  # shared by every frame of this family
        return direction, complement


# ---------------------------------------------------------------------------
# lifting


@np.errstate(all="ignore")
def _lift_jet(jet: FamilyJet):
    """Lift a batched family jet to the quadric: A (P, n+2) with (A, A) = 1, plus
    dA (P, r, n+2) and d2A (P, r, r, n+2).

    A = (1, c, (|c|^2 - rho^2) / 2) / rho is evaluated on Taylor values seeded
    from the jet, so its derivatives come from `taylor` alone.  d2 is
    symmetrized first, (d2 + d2^T) / 2, which leaves a symmetric d2 as it is.
    Every step is elementwise, so a row's bits do not depend on its batch; a
    row that `SphereFamily._row_jets` recorded as failed computes on.
    """
    d1 = np.concatenate([jet.dc, jet.drho[..., None]], axis=-1)
    d2 = np.concatenate([jet.d2c, jet.d2rho[..., None]], axis=-1)
    d2 = 0.5 * (d2 + d2.transpose(0, 2, 1, 3))
    *c, rho = _from_derivatives([np.column_stack([jet.c, jet.rho]), d1, d2])
    inv = 1.0 / rho
    half_power = sum(x * x for x in c) - rho * rho
    lifted = [inv, *(x * inv for x in c), half_power * (0.5 * inv)]
    basis = inv.basis
    return tuple(_derivatives(_coefficients(lifted, basis, (len(jet.rho),)), basis, jet.r))


def family_lift(family: SphereFamily, t) -> tuple[PolyVector, np.ndarray]:
    """Unit-quadric lift A(t) of the family and its velocity rows dA (r, n+2)."""
    a, da, _ = _lift_jet(family.jets_at(np.atleast_1d(np.asarray(t, dtype=float))[None]))
    return PolyVector(a[0]), da[0]


# ---------------------------------------------------------------------------
# causal classification


@dataclass(frozen=True)
class FamilySample:
    t: tuple
    kind: str
    value: float

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


def _velocity_gram(jet: FamilyJet) -> tuple[np.ndarray, np.ndarray]:
    """The gram (dA_p, dA_q) = (dc_p.dc_q - rho'_p rho'_q) / rho^2 (P, r, r) of a batched
    family jet, read off the jet itself, and its scale max_p (|dc_p|^2 + rho'_p^2) / rho^2."""
    dc = jet.dc / jet.rho[:, None, None]
    drho = jet.drho / jet.rho[:, None]
    gram = dc @ dc.transpose(0, 2, 1) - drho[:, :, None] * drho[:, None, :]
    return gram, np.max(np.einsum("ipn,ipn->ip", dc, dc) + drho * drho, axis=1)


def _classify_velocity(jet: FamilyJet, a, da, d2a, tolerances: Tolerances):
    """Causal kind of the lifted velocity at every row of a lifted batch, plus envelope regularity.

    Returns per-row arrays: kind, value (the least gram eigenvalue, 0 where
    stationary) and nondeg.  The kind reads `_velocity_gram`, in the family's own
    scale: stationary at most ``_STATIONARY_REL``^2, lightlike within ``lightcone``
    of it.  Regularity reads the lift.  Stacked `eigvalsh`, QR and SVD serve the batch.
    """
    rows, r, size = da.shape
    gram, scale = _velocity_gram(jet)
    stationary = scale <= _STATIONARY_REL**2
    eigs = np.linalg.eigvalsh(gram)
    band = tolerances.lightcone * scale
    value = eigs[:, 0]
    kind = np.where(
        value > band,
        Causal.SPACELIKE.value,
        np.where(value < -band, Causal.TIMELIKE.value, Causal.LIGHTLIKE.value),
    )
    kind = np.where(stationary, "stationary", kind)
    value = np.where(stationary, 0.0, value)

    stack = d2a.reshape(rows, r * r, size)
    basis = np.concatenate([a[:, None, :], da], axis=1)
    q, _ = np.linalg.qr(basis.transpose(0, 2, 1))
    resid = stack - (stack @ q) @ q.transpose(0, 2, 1)
    sv = np.linalg.svd(resid, compute_uv=False)
    flat = stack.reshape(rows, -1)
    stack_norm = np.sqrt(_row_dots(flat, flat))
    rank_scale = np.maximum(np.maximum(sv[:, 0], _RANK_REL * stack_norm), 1e-300)
    nondeg = sv[:, r - 1] > _RANK_REL * rank_scale  # min(r * r, n + 2) >= r values
    return kind, value, nondeg


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

    The grid is ``counts`` cells per axis of the domain box, or the rows of
    ``params`` (at least one, all finite).  The family jets, their lifts and
    the classification are each one batched pass over the whole grid.
    """
    if params is None:
        pts = cell_centers(family.domain, counts)
    else:
        pts = parameter_grid(params, family.r)
    jet, errors = family._row_jets(pts)
    lifted = _lift_jet(jet)
    finite = np.all([np.isfinite(x).reshape(len(pts), -1).all(axis=1) for x in lifted], axis=0)
    errors.check(~finite, DomainError, _NOT_FINITE)
    errors.raise_first()
    kinds, values, nondeg = _classify_velocity(jet, *lifted, tolerances)

    counts_out = {"spacelike": 0, "timelike": 0, "lightlike": 0, "stationary": 0}
    for kind in kinds.tolist():
        counts_out[kind] += 1
    degenerate_regularity = np.any((kinds == "spacelike") & ~nondeg)
    samples = tuple(
        FamilySample(t=tuple(t), kind=kind, value=value)
        for t, kind, value in zip(pts.tolist(), kinds.tolist(), values.tolist())
    )

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
        samples=samples,
        verdict=verdict,
        counts=counts_out,
    )


# ---------------------------------------------------------------------------
# characteristic spheres


@dataclass(frozen=True)
class CharacteristicSphere:
    """Sphere of dimension m = n - r - 1 where the envelope touches one member."""

    t: tuple
    center: np.ndarray
    radius: float
    m: int
    member_center: np.ndarray
    member_radius: float


# the characteristic spheres of P members: center (P, n) and radius (P,); for r = 1
# on request the plane basis w (P, n-1, n)
_Circles = namedtuple("_Circles", "center radius w")


@np.errstate(all="ignore")
def _characteristic(jet: FamilyJet, errors: _RowErrors, reference=None) -> _Circles:
    """The characteristic sphere of every row of a batched family jet, in closed form.

    The envelope conditions (x - c).dc_p = -rho drho_p put the centre at
    c - rho dc^T G^-1 drho, G = dc dc^T, and the squared radius at
    rho^2 - |centre - c|^2.  Gram-Schmidt on the rows of dc is the Cholesky
    factor of G, so G is solved by forward substitution; a pivot within
    ``_FRAME_FLOOR`` times max_p |dc_p| means G is singular.  For r = 1 this is
    T = c'/s and delta = -rho rho'/s with s = |c'|, and only c' = 0 fails.  Given
    the family's ``reference`` frame, W is its complement rotated onto T.  Each
    step is elementwise or a per-row BLAS product, so a row's bits do not
    depend on its batch.  Its checks are recorded in ``errors``; a failed row computes on.
    """
    dc, rho, drho = jet.dc, jet.rho, jet.drho
    norms = np.sqrt(np.einsum("ipn,ipn->ip", dc, dc))
    floor = _FRAME_FLOOR * norms.max(axis=1)
    spine, delta = np.empty_like(dc), np.empty_like(drho)
    for k in range(dc.shape[1]):
        v, num = dc[:, k], -rho * drho[:, k]
        for j in range(k):
            proj = _row_dots(dc[:, k], spine[:, j])
            v = v - proj[:, None] * spine[:, j]
            num = num - proj * delta[:, j]
        s = np.sqrt(_row_dots(v, v))
        what = "family spine is (numerically) rank-deficient at t={t}"
        errors.check(s <= floor, DegenerateFrameError, what)
        spine[:, k] = v / s[:, None]
        delta[:, k] = num / s

    center = jet.c + (delta[:, :, None] * spine).sum(axis=1)
    rad2 = rho * rho - (delta * delta).sum(axis=1)
    what = "characteristic sphere is imaginary at t={t}"
    errors.check(rad2 < -1e-12 * rho * rho, ImaginaryCharacteristicError, what)
    radius = np.sqrt(np.maximum(rad2, 0.0))

    w = None
    if reference is not None:
        # the minimal rotation taking v_ref to the tangent, applied to u_ref
        v_ref, u_ref = reference
        tau = spine[:, 0]
        denom = 1.0 + (tau[:, None, :] @ v_ref[:, None])[:, 0, 0]  # one dot per row
        what = "spine tangent hit the reference antipode at t={t}"
        errors.check(denom < 1e-9, DegenerateFrameError, what)
        vt = v_ref + tau
        coef = np.matmul(u_ref, vt[:, :, None])[..., 0] / denom[:, None]  # (P, n-1)
        w = u_ref - coef[:, :, None] * vt[:, None, :]
    return _Circles(center, radius, w)


def _circle_points(circle: _Circles, rows, units: np.ndarray) -> np.ndarray:
    """Points on the characteristic spheres ``rows`` of ``circle`` at unit vectors (k, m+1, 1).

    This is the one point formula of the envelope chart, its meshes and the
    rank-drop oracle of `focal`: centre + radius * (units @ w), with units @ w
    summed term by term, left to right, so that a row rounds alike in any batch.
    """
    terms = units * circle.w[rows]
    total = terms[:, 0]
    for i in range(1, terms.shape[1]):
        total = total + terms[:, i]
    return circle.center[rows] + circle.radius[rows, None] * total


def characteristic_sphere(family: SphereFamily, t) -> CharacteristicSphere:
    ts = np.atleast_1d(np.asarray(t, dtype=float))[None]
    jet, errors = family._row_jets(ts)
    circle = _characteristic(jet, errors)
    errors.raise_first()
    return CharacteristicSphere(
        t=tuple(ts[0]),
        center=circle.center[0],
        radius=float(circle.radius[0]),
        m=family.dim_n - family.r - 1,
        member_center=jet.c[0],
        member_radius=float(jet.rho[0]),
    )


# ---------------------------------------------------------------------------
# envelope charts and meshes


def _spherical_unit(angles: np.ndarray) -> np.ndarray:
    """Points (k, m+1) on the unit sphere S^m from k rows of m angles.

    The first m-1 angles are polar, the last azimuthal.
    """
    k, m = angles.shape
    out = np.empty((k, m + 1))
    sin_prod = np.ones(k)
    for i in range(m):
        out[:, i] = sin_prod * np.cos(angles[:, i])
        sin_prod = sin_prod * np.sin(angles[:, i])
    out[:, m] = sin_prod
    return out


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


def envelope_surface(family: SphereFamily, name: str = "") -> ParametricSurface:
    """Envelope of a one-parameter family as a parametric chart (t, angles).

    The chart is exact; it carries no analytic jet, so `evaluate_jet` takes
    its derivatives by finite differences at the default steps.  Use the
    analytic catalog surfaces when derivative accuracy is critical.  A chart
    call takes one batched member jet over its distinct t and one
    closed-form `_characteristic` pass; nothing is cached between calls.
    The angular frame is globally smooth in t (the family's reference
    complement rotated onto the spine tangent), so finite differences of any
    order stay meaningful.
    """
    if family.r != 1:
        raise DomainError("envelope charts are provided for one-parameter families")
    n = family.dim_n
    lo, hi = family.domain[0]
    reference = family._reference_frame

    def chart(u):
        u = np.asarray(u, dtype=float)
        pts = np.atleast_2d(u)
        if not len(pts):
            return np.empty((0, n))
        ts, inv = np.unique(pts[:, 0], return_inverse=True)
        jet, errors = family._row_jets(ts[:, None])
        circle = _characteristic(jet, errors, reference)
        errors.raise_first()
        out = _circle_points(circle, inv, _spherical_unit(pts[:, 1:])[:, :, None])
        return out[0] if u.ndim == 1 else out

    domain = [[lo, hi]]
    domain += [[_POLAR_MARGIN, math.pi - _POLAR_MARGIN] for _ in range(n - 3)]
    domain += [[0.0, 2.0 * math.pi]]
    return ParametricSurface(
        dim_n=n,
        chart=chart,
        domain=domain,
        name=name or (family.name + "-envelope" if family.name else "envelope"),
    )


@dataclass(frozen=True)
class EnvelopeMesh:
    """Envelope vertices (P, n); for n = 3 also unit normals (P, 3) and faces, else None."""

    vertices: np.ndarray
    normals: np.ndarray | None
    faces: np.ndarray | None
    name: str


def envelope_mesh(
    family: SphereFamily,
    t_count: int = 256,
    angle_count: int = 64,
    name: str = "",
) -> EnvelopeMesh:
    """Sample the envelope of a one-parameter family into a mesh.

    For n = 3 the mesh carries unit normals and triangle faces (closed in the
    angular direction, open along the spine); for n >= 4 it holds vertices only.
    A family in R^2 raises `DomainError`, and so do counts that fail
    `jets._grid_counts`, a grid too large for its vertices among them.
    """
    if family.r != 1:
        raise DomainError("meshes are generated for one-parameter families")
    n = family.dim_n
    if n < 3:  # in R^2 the characteristic set is a point pair; the chart refuses n < 3 too
        raise DomainError("hypersurface analysis needs ambient dimension n >= 3")
    what = "mesh counts (t_count, angle_count)"
    t_count, angle_count = _grid_counts([t_count, angle_count], 2, what)
    polar_count = max(angle_count // 2, 4)
    # a (t, azimuth) cell: polar_count**(n-3) vertices of n floats, 2n with normals
    _grid_counts([t_count, angle_count], 2, what, (2 if n == 3 else 1) * n * polar_count ** (n - 3))
    lo, hi = family.domain[0]
    ts = np.linspace(lo, hi, t_count)
    polar = np.linspace(_POLAR_MARGIN, math.pi - _POLAR_MARGIN, polar_count)
    thetas = np.linspace(0.0, 2.0 * math.pi, angle_count, endpoint=False)
    # the angle rows of one t block; every t takes the same block
    grid = np.meshgrid(*[polar] * (n - 3), thetas, indexing="ij")
    units = _spherical_unit(np.stack([g.ravel() for g in grid], axis=-1))[:, :, None]

    # one batched member jet serves the circles and the normals of every block
    jet, errors = family._row_jets(ts[:, None])
    circle = _characteristic(jet, errors, family._reference_frame)
    errors.raise_first()
    verts = np.empty((t_count, len(units), n))
    for k in range(t_count):  # the chart's points, one block at a time
        verts[k] = _circle_points(circle, k, units)

    normals = faces = None
    if n == 3:
        normals = verts - jet.c[:, None]
        normals /= jet.rho[:, None, None]
        normals = normals.reshape(-1, n)
        i = np.arange(t_count - 1)[:, None] * angle_count
        j = np.arange(angle_count)
        a, b = i + j, i + (j + 1) % angle_count
        c, d = a + angle_count, b + angle_count
        faces = np.stack([np.stack([a, b, d], -1), np.stack([a, d, c], -1)], axis=2).reshape(-1, 3)

    return EnvelopeMesh(
        vertices=verts.reshape(-1, n),
        normals=normals,
        faces=faces,
        name=name or (family.name + "-envelope" if family.name else "envelope"),
    )
