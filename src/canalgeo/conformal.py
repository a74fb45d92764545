"""Homogeneous-coordinate algebra of the Moebius sphere model.

Points, hyperspheres and hyperplanes of inversive n-space are encoded as
(n+2)-vectors ``(x^0, x^1, ..., x^n, x^(n+1))``.  In the Euclidean gauge the
model carries the quadratic form

    <X, Y> = sum_{k=1..n} x^k y^k  -  x^0 y^(n+1)  -  x^(n+1) y^0

of signature (n+1, 1).  Proper points lift onto the isotropic cone
``<X, X> = 0``; hyperspheres and hyperplanes normalize to ``<X, X> = 1``.
Scalar products of normalized vectors carry the inversive invariants: zero
means orthogonal circles/spheres, unit magnitude means tangency, and the
value for two spheres equals ``(r1^2 + r2^2 - d^2) / (2 r1 r2)``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .config import DEFAULT_TOLERANCES, Tolerances
from .errors import DegeneratePencilError, DimensionMismatch, DomainError

__all__ = [
    "PolyVector",
    "Causal",
    "PencilKind",
    "PencilClass",
    "Dropped",
    "inner",
    "form_matrix",
    "scalar_product",
    "lift_point",
    "lift_sphere",
    "lift_plane",
    "normalize_sphere",
    "drop_sphere",
    "classify_pencil",
    "classify_direction",
]


def inner(x: np.ndarray, y: np.ndarray) -> np.ndarray | float:
    """Model scalar product on raw coordinate arrays (last index = component).

    The one implementation of the form: every module evaluates (x, y) here.
    Leading axes broadcast, so rows, stacks and Gram matrices take one call.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape[-1] != y.shape[-1]:
        raise DimensionMismatch(
            f"coordinate lengths differ: {x.shape[-1]} vs {y.shape[-1]}"
        )
    mid = np.sum(x[..., 1:-1] * y[..., 1:-1], axis=-1)
    return mid - x[..., 0] * y[..., -1] - x[..., -1] * y[..., 0]


def form_matrix(dim_n: int) -> np.ndarray:
    """Gram matrix of the model form on the standard basis of R^(n+2): the
    reference that a frame's scalar products are checked against."""
    size = dim_n + 2
    g = np.eye(size)
    g[0, 0] = g[-1, -1] = 0.0
    g[0, -1] = g[-1, 0] = -1.0
    return g


def _lift_rows(first: float, x: np.ndarray, last) -> np.ndarray:
    """Lift-space rows (first, x, last) along the last axis of x: point lifts
    (1, x, |x|^2/2), unscaled sphere lifts, and hyperplane, tangent and
    velocity rows (0, x, last)."""
    x = np.asarray(x, dtype=float)
    out = np.empty(x.shape[:-1] + (x.shape[-1] + 2,))
    out[..., 0] = first
    out[..., 1:-1] = x
    out[..., -1] = last
    return out


@dataclass(frozen=True, eq=False)
class PolyVector:
    """Homogeneous coordinate vector of the n-dimensional sphere model.

    Parameters
    ----------
    coords:
        Sequence of n + 2 finite floats.
    dim_n:
        Ambient dimension n.  Defaults to ``len(coords) - 2``.
    """

    coords: np.ndarray
    dim_n: int = -1

    def __post_init__(self):
        arr = np.asarray(self.coords, dtype=float).reshape(-1).copy()
        if arr.size < 4:
            raise DomainError("a model vector needs at least 4 components (n >= 2)")
        if not np.all(np.isfinite(arr)):
            raise DomainError("model vector has non-finite components")
        n = self.dim_n if self.dim_n >= 0 else arr.size - 2
        if arr.size != n + 2:
            raise DimensionMismatch(
                f"expected {n + 2} components for dimension {n}, got {arr.size}"
            )
        arr.setflags(write=False)
        object.__setattr__(self, "coords", arr)
        object.__setattr__(self, "dim_n", n)

    def norm2(self) -> float:
        """Self scalar product <X, X>."""
        return float(inner(self.coords, self.coords))

    def scaled(self, factor: float) -> "PolyVector":
        return PolyVector(self.coords * factor, self.dim_n)

    def __repr__(self) -> str:  # compact, round-trippable enough for logs
        body = ", ".join(f"{c:.12g}" for c in self.coords)
        return f"PolyVector([{body}])"


def _check_pair(x: PolyVector, y: PolyVector) -> None:
    if x.dim_n != y.dim_n:
        raise DimensionMismatch(
            f"vectors live in different models: n={x.dim_n} vs n={y.dim_n}"
        )


def scalar_product(x: PolyVector, y: PolyVector) -> float:
    """Polarized model form of two vectors from the same model."""
    _check_pair(x, y)
    return float(inner(x.coords, y.coords))


def lift_point(p: Sequence[float]) -> PolyVector:
    """Lift a Euclidean point onto the isotropic cone: (1, p, |p|^2 / 2)."""
    p = np.asarray(p, dtype=float).reshape(-1)
    return PolyVector(_lift_rows(1.0, p, 0.5 * float(p @ p)), p.size)


def lift_sphere(center: Sequence[float], radius: float) -> PolyVector:
    """Lift a hypersphere to its unit-norm model vector.

    The vector is ``(1/r) * (1, c, (|c|^2 - r^2)/2)`` which satisfies
    ``<X, X> = 1`` identically.
    """
    c = np.asarray(center, dtype=float).reshape(-1)
    r = float(radius)
    if not (r > 0.0) or not np.isfinite(r):
        raise DomainError(f"sphere radius must be positive and finite, got {radius!r}")
    return PolyVector(_lift_rows(1.0, c, 0.5 * (float(c @ c) - r * r)) / r, c.size)


def lift_plane(normal: Sequence[float], offset: float) -> PolyVector:
    """Lift the hyperplane {x : x . normal = offset} with unit normal."""
    nu = np.asarray(normal, dtype=float).reshape(-1)
    norm = float(np.linalg.norm(nu))
    if norm < 1e-14:
        raise DomainError("plane normal must be nonzero")
    if abs(norm - 1.0) > 1e-12:
        raise DomainError("plane normal must be a unit vector")
    return PolyVector(_lift_rows(0.0, nu, float(offset)), nu.size)


def normalize_sphere(x: PolyVector, tol: float | None = None) -> PolyVector:
    """Rescale a non-isotropic vector so that <X, X> = 1.

    Raises DomainError when the vector is isotropic or timelike within the
    relative tolerance band (such vectors carry no real hypersphere).
    """
    nx = x.norm2()
    scale = float(x.coords @ x.coords)
    band = (DEFAULT_TOLERANCES.isotropy if tol is None else tol) * max(scale, 1e-300)
    if nx <= band:
        raise DomainError(
            "vector has non-positive model norm; no real hypersphere to normalize"
        )
    return x.scaled(1.0 / np.sqrt(nx))


class Causal(enum.Enum):
    SPACELIKE = "spacelike"
    TIMELIKE = "timelike"
    LIGHTLIKE = "lightlike"


class PencilKind(enum.Enum):
    ELLIPTIC = "elliptic"
    HYPERBOLIC = "hyperbolic"
    PARABOLIC = "parabolic"


@dataclass(frozen=True)
class PencilClass:
    kind: PencilKind
    inversive_value: float


@dataclass(frozen=True)
class Dropped:
    """Euclidean carrier recovered from a model vector.

    ``kind`` is one of "point", "sphere", "plane", "infinity", "imaginary".
    Exactly the fields meaningful for that kind are populated.
    """

    kind: str
    point: np.ndarray | None = None
    center: np.ndarray | None = None
    radius: float | None = None
    normal: np.ndarray | None = None
    offset: float | None = None

    def to_json(self) -> dict:
        out: dict = {"kind": self.kind}
        if self.point is not None:
            out["point"] = [float(v) for v in self.point]
        if self.center is not None:
            out["center"] = [float(v) for v in self.center]
        if self.radius is not None:
            out["radius"] = float(self.radius)
        if self.normal is not None:
            out["normal"] = [float(v) for v in self.normal]
        if self.offset is not None:
            out["offset"] = float(self.offset)
        return out


def drop_sphere(x: PolyVector, tolerances: Tolerances | None = None) -> Dropped:
    """Classify a model vector and recover its Euclidean carrier.

    Isotropic vectors (within the relative band) drop to points, or to the
    improper point when ``x^0 = 0``.  Spacelike vectors renormalize to
    ``<X, X> = 1`` and drop to a sphere (``x^0 != 0``) or a plane
    (``x^0 = 0``).  Timelike vectors carry no real locus and come back with
    kind "imaginary".
    """
    tol = tolerances or DEFAULT_TOLERANCES
    raw = x.coords
    scale = float(raw @ raw)
    if scale == 0.0:
        raise DomainError("zero vector has no carrier")
    nx = x.norm2()
    band = tol.isotropy * scale

    if abs(nx) <= band:
        x0 = raw[0]
        if abs(x0) <= np.sqrt(scale) * 1e-13:
            return Dropped(kind="infinity")
        return Dropped(kind="point", point=raw[1:-1] / x0)

    if nx < 0.0:
        return Dropped(kind="imaginary")

    unit = raw / np.sqrt(nx)
    x0 = unit[0]
    if abs(x0) <= 1e-13:
        nu = unit[1:-1]
        # <X,X> = 1 with x^0 = 0 forces |nu| = 1 up to roundoff
        nu = nu / np.linalg.norm(nu)
        return Dropped(kind="plane", normal=nu, offset=float(unit[-1]))
    if x0 < 0.0:
        unit = -unit
        x0 = -x0
    return Dropped(kind="sphere", center=unit[1:-1] / x0, radius=1.0 / x0)


def classify_pencil(
    x: PolyVector, y: PolyVector, tolerances: Tolerances | None = None
) -> PencilClass:
    """Classify the pencil spanned by two hyperspheres.

    Both vectors are renormalized to unit model norm; the magnitude of their
    product (the inversive distance) separates intersecting (< 1), tangent
    (= 1) and disjoint (> 1) pairs.
    """
    tol = tolerances or DEFAULT_TOLERANCES
    _check_pair(x, y)
    try:
        xn = normalize_sphere(x, tol.isotropy)
        yn = normalize_sphere(y, tol.isotropy)
    except DomainError as exc:
        raise DegeneratePencilError(f"pencil needs two real hyperspheres: {exc}") from exc
    # Canonical co-orientation (positive leading component where present),
    # so the reported value does not depend on the representative's sign.
    if xn.coords[0] < 0.0:
        xn = xn.scaled(-1.0)
    if yn.coords[0] < 0.0:
        yn = yn.scaled(-1.0)
    value = scalar_product(xn, yn)
    if abs(abs(value) - 1.0) <= tol.pencil * max(1.0, abs(value)):
        kind = PencilKind.PARABOLIC
    elif abs(value) < 1.0:
        kind = PencilKind.ELLIPTIC
    else:
        kind = PencilKind.HYPERBOLIC
    return PencilClass(kind=kind, inversive_value=value)


def classify_direction(
    v: Sequence[float] | PolyVector,
    dim_n: int | None = None,
    tolerances: Tolerances | None = None,
) -> Causal:
    """Causal type of a tangent direction of the model space.

    The lightlike band is relative: ``|<v, v>| <= lightcone * |v|^2`` with the
    Euclidean square on the right, so the verdict is scale-invariant.
    """
    tol = tolerances or DEFAULT_TOLERANCES
    if isinstance(v, PolyVector):
        arr = v.coords
    else:
        arr = np.asarray(v, dtype=float).reshape(-1)
        if dim_n is not None and arr.size != dim_n + 2:
            raise DimensionMismatch(
                f"expected {dim_n + 2} components, got {arr.size}"
            )
    scale = float(arr @ arr)
    if scale == 0.0:
        raise DomainError("zero vector has no causal type")
    value = float(inner(arr, arr))
    if abs(value) <= tol.lightcone * scale:
        return Causal.LIGHTLIKE
    return Causal.SPACELIKE if value > 0.0 else Causal.TIMELIKE
