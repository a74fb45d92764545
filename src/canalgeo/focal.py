"""Adapted frames along sphere curves, focal determinants, and singular points.

For a one-parameter family in R^3 the envelope is swept by characteristic
circles.  Along the lifted curve A_3(t) we build the frame {A_0..A_4} with
A_0, A_4 antipodal isotropic points of the circle, A_1 the circle tangent,
A_2 the normalized curve velocity.  Reading the frame derivatives off
against the quadratic form yields the three structure coefficients that
control where the envelope fails to be immersed: the roots of

    (x^1)^2 + 2*lam212 * x^1 x^4 + 2*c22 * (x^4)^2 = 0

on the isotropy quadric of the generator plane are the singular points, so
their count is decided by the discriminant lam212^2 - 2*c22.  The frame and
its t-derivatives are closed form in the order-2 member jet at t, so no
difference step enters the coefficients.

Projectively, the polar hyperplanes of A(t) envelope a tangentially
degenerate hypersurface of rank r in P^{n+1}.  ``focal_determinant``
evaluates its focal variety on the generator, and the r = 1 fast path above
is that variety cut with the absolute quadric.  The degree-r evaluator
accepts caller-supplied coefficient matrices; this module computes them from
raw family data for r = 1 only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_TOLERANCES, Tolerances
from .conformal import Dropped, PolyVector, drop_sphere, form_matrix, lift_point
from .envelope import _FRAME_FLOOR, SphereFamily, _lift_jet, envelope_surface
from .errors import (
    DegenerateFrameError,
    DimensionMismatch,
    DomainError,
    FrameConsistencyError,
)

__all__ = [
    "GeneratorFrame",
    "FocalCoefficients",
    "SingularPoint",
    "SingularReport",
    "PlaneClass",
    "RankDropReport",
    "adapted_frame_coefficients",
    "focal_determinant",
    "constraint_residual",
    "singular_set",
    "classify_tube_plane",
    "rank_drop_singular_points",
]

_OMEGA_REL = 1e-8
_SIGN_REL = 1e-12


def _canonical_sign(v: np.ndarray) -> float:
    """Sign that makes the first component exceeding a relative floor positive."""
    scale = float(np.max(np.abs(v)))
    for x in v:
        if abs(x) > _SIGN_REL * scale:
            return 1.0 if x > 0 else -1.0
    return 1.0


@dataclass(frozen=True)
class GeneratorFrame:
    """Adapted frame at one parameter of an r = 1 family in R^3.

    a0 and a4 are isotropic lifts of antipodal points x0, x4 of the
    characteristic circle with (a0, a4) = -1; a1 is the unit circle tangent
    at x0; a2 the unit curve velocity; a3 the enveloped sphere itself.
    """

    t: float
    a0: np.ndarray
    a1: np.ndarray
    a2: np.ndarray
    a3: np.ndarray
    a4: np.ndarray
    x0: np.ndarray
    x4: np.ndarray
    center: np.ndarray
    radius: float
    w: np.ndarray
    angle: float


@dataclass(frozen=True)
class FocalCoefficients:
    """Structure coefficients of the adapted frame (shapes for rank r, m canal directions).

    ``lam_pq`` is the nondegenerate r x r velocity matrix, ``lam_apq`` the m
    stacked r x r matrices entering the focal determinant, ``c_pq`` the r x r
    acceleration matrix.  For r = 1, n = 3 these are 1 x 1 and the entries
    are the classical lam22, lam212, c22.
    """

    r: int
    lam_pq: np.ndarray
    lam_apq: np.ndarray
    c_pq: np.ndarray
    t: float | None = None
    omega_rate: float | None = None
    frame: GeneratorFrame | None = None

    def __post_init__(self):
        lam_pq = np.atleast_2d(np.asarray(self.lam_pq, dtype=float))
        c_pq = np.atleast_2d(np.asarray(self.c_pq, dtype=float))
        lam_apq = np.asarray(self.lam_apq, dtype=float)
        if lam_apq.ndim == 2:
            lam_apq = lam_apq[None, :, :]
        r = self.r
        if lam_pq.shape != (r, r) or c_pq.shape != (r, r):
            raise DimensionMismatch(f"lam_pq and c_pq must be ({r}, {r}) matrices")
        if lam_apq.ndim != 3 or lam_apq.shape[1:] != (r, r):
            raise DimensionMismatch(f"lam_apq must be (m, {r}, {r}), got {lam_apq.shape}")
        if abs(np.linalg.det(lam_pq)) < 1e-300:
            raise DegenerateFrameError("lam_pq must be nondegenerate")
        object.__setattr__(self, "lam_pq", lam_pq)
        object.__setattr__(self, "lam_apq", lam_apq)
        object.__setattr__(self, "c_pq", c_pq)

    @property
    def m(self) -> int:
        return self.lam_apq.shape[0]

    @property
    def lam22(self) -> float:
        return float(self.lam_pq[0, 0])

    @property
    def lam212(self) -> float:
        return float(self.lam_apq[0, 0, 0])

    @property
    def c22(self) -> float:
        return float(self.c_pq[0, 0])

    def constraint_residual(self) -> float:
        return constraint_residual(self.lam_pq, self.c_pq)

    def to_json(self) -> dict:
        return {
            "r": self.r,
            "t": self.t,
            "lam_pq": self.lam_pq.tolist(),
            "lam_apq": self.lam_apq.tolist(),
            "c_pq": self.c_pq.tolist(),
        }


def constraint_residual(lam_pq: np.ndarray, c_pq: np.ndarray) -> float:
    """Asymmetry of lam^t_p c_tq, which must be symmetric in (p, q)."""
    prod = np.atleast_2d(lam_pq) @ np.atleast_2d(c_pq)
    return float(np.linalg.norm(prod - prod.T))


def focal_determinant(coeffs: FocalCoefficients, x) -> float:
    """Evaluate det(x^0 I + sum_a x^a lam_a + x^last c) at generator coordinates x.

    ``x`` packs (x^0, x^1..x^m, x^{n+1}); the result is a homogeneous
    polynomial of degree r in these variables whose zero set is the focal
    variety of the generator plane.
    """
    x = np.asarray(x, dtype=float)
    m, r = coeffs.m, coeffs.r
    if x.shape != (m + 2,):
        raise DimensionMismatch(f"expected {m + 2} generator coordinates, got shape {x.shape}")
    mat = x[0] * np.eye(r) + np.einsum("a,apq->pq", x[1 : m + 1], coeffs.lam_apq)
    mat = mat + x[m + 1] * coeffs.c_pq
    return float(np.linalg.det(mat))


# ---------------------------------------------------------------------------
# r = 1 frame construction


def _form_dot(x: np.ndarray, y: np.ndarray, g: np.ndarray) -> float:
    return float(x @ g @ y)


def _frame_vector(x: np.ndarray, last: float) -> np.ndarray:
    """Lift-space vector (0, x, last): a point-lift velocity or a circle tangent."""
    return np.concatenate(([0.0], x, [last]))


def adapted_frame_coefficients(family: SphereFamily, t: float) -> FocalCoefficients:
    """Structure coefficients lam22, lam212, c22 of an r = 1 family in R^3 at t.

    Every frame vector and its t-derivative is closed form in the order-2
    member jet at t.  With s = |c'|, T = c'/s, the characteristic circle has
    centre C = c + delta T and radius R, delta = -rho rho'/s and
    R^2 = rho^2 - delta^2.  Past the spacelike check R^2 > 0 holds in
    exact arithmetic, since R^2 = rho^2 (1 - rho'^2/s^2) and (A', A') =
    (s^2 - rho'^2)/rho^2 share their sign.  The plane basis is U = the unit
    projection of e_k off T, k the first index minimising |T_k|, and
    V = T x U; it is carried along by the minimal rotation U' = -(U.T') T,
    V' = -(V.T') T.  Any other in-plane transport adds a multiple of A_1 to
    A_0' and of A_0 - 2R^2 A_4 to A_1', both orthogonal to A_2, so the
    coefficients do not depend on it.  The
    circle point x0 = C + R U starts at angle 0; if that makes the
    transverse rate degenerate the construction retries at angles rotated
    by pi/8 before giving up.
    """
    if family.r != 1 or family.dim_n != 3:
        raise DomainError("adapted frames are computed for r = 1 families in R^3")
    t = float(t)
    g = form_matrix(family.dim_n)
    jet = family.jet_at([t])
    a3, da, d2a = _lift_jet(jet)
    da3, d2a3 = da[0], d2a[0, 0]
    speed2 = _form_dot(da3, da3, g)
    if speed2 <= 0 or not math.isfinite(speed2):
        raise DomainError(f"family is not spacelike at t={t}; no adapted frame exists")
    speed = math.sqrt(speed2)
    a2 = da3 / speed
    dspeed = _form_dot(da3, d2a3, g) / speed
    da2 = d2a3 / speed - da3 * (dspeed / speed2)

    rho, drho, d2rho = jet.rho, float(jet.drho[0]), float(jet.d2rho[0, 0])
    dc, d2c = jet.dc[0], jet.d2c[0, 0]
    s = float(np.linalg.norm(dc))
    if s <= _FRAME_FLOOR:
        raise DegenerateFrameError("family spine has (numerically) stationary directions")
    tan = dc / s
    delta = -rho * drho / s
    radius2 = rho * rho - delta * delta
    if radius2 <= 1e-12 * rho * rho:
        raise DegenerateFrameError(f"characteristic circle degenerated to a point at t={t}")
    radius = math.sqrt(radius2)
    center = jet.c + delta * tan
    axis = int(np.argmin(np.abs(tan)))
    w0 = -tan[axis] * tan
    w0[axis] += 1.0
    w0 /= np.linalg.norm(w0)
    w = np.array([w0, np.cross(tan, w0)])

    ds = float(d2c @ tan)
    dtan = (d2c - ds * tan) / s
    ddelta = -(drho * drho + rho * d2rho) / s + rho * drho * ds / (s * s)
    dradius = (rho * drho - delta * ddelta) / radius
    dcenter = dc + ddelta * tan + delta * dtan

    for k in range(8):
        ang = k * math.pi / 8.0
        cs, sn = math.cos(ang), math.sin(ang)
        unit = cs * w[0] + sn * w[1]
        perp = -sn * w[0] + cs * w[1]
        dunit = -float(unit @ dtan) * tan
        dperp = -float(perp @ dtan) * tan
        x0 = center + radius * unit
        x4 = center - radius * unit
        dx0 = dcenter + dradius * unit + radius * dunit

        a0 = lift_point(x0).coords
        da0 = _frame_vector(dx0, float(x0 @ dx0))
        omega = _form_dot(da0, a2, g)
        omega_scale = max(1e-300, float(np.linalg.norm(da0)) * float(np.linalg.norm(a2)))
        if abs(omega) <= _OMEGA_REL * omega_scale:
            continue

        a4 = lift_point(x4).coords / (2.0 * radius * radius)
        a1 = _frame_vector(perp, float(x0 @ perp))
        da1 = _frame_vector(dperp, float(dx0 @ perp + x0 @ dperp))
        sign = _canonical_sign(a1)
        a1, da1 = sign * a1, sign * da1

        lam22 = -speed / omega
        if abs(lam22) <= 1e-12:
            raise DegenerateFrameError(f"curve velocity vanished at t={t}")
        lam212 = _form_dot(da1, a2, g) / omega
        c22 = -_form_dot(da2, a4, g) / omega
        frame = GeneratorFrame(
            t=t,
            a0=a0,
            a1=a1,
            a2=a2,
            a3=a3,
            a4=a4,
            x0=x0,
            x4=x4,
            center=center,
            radius=radius,
            w=w,
            angle=ang,
        )
        return FocalCoefficients(
            r=1,
            lam_pq=np.array([[lam22]]),
            lam_apq=np.array([[[lam212]]]),
            c_pq=np.array([[c22]]),
            t=t,
            omega_rate=omega,
            frame=frame,
        )
    raise DegenerateFrameError(f"transverse rate vanished at every frame angle at t={t}")


# ---------------------------------------------------------------------------
# singular points on a characteristic circle


@dataclass(frozen=True)
class SingularPoint:
    generator: tuple  # (x0, x1, x4) frame coordinates
    point: np.ndarray  # location in R^3
    angle: float  # position on the characteristic circle

    def to_json(self) -> dict:
        return {
            "generator": [float(v) for v in self.generator],
            "point": [float(v) for v in self.point],
            "angle": self.angle,
        }


@dataclass(frozen=True)
class SingularReport:
    t: float
    discriminant: float
    band: float
    count: int
    points: tuple
    degenerate: bool
    coefficients: FocalCoefficients

    def to_json(self) -> dict:
        return {
            "t": self.t,
            "discriminant": self.discriminant,
            "band": self.band,
            "count": self.count,
            "degenerate": self.degenerate,
            "points": [p.to_json() for p in self.points],
            "coefficients": self.coefficients.to_json(),
        }


def singular_set(
    coeffs: FocalCoefficients, tolerances: Tolerances = DEFAULT_TOLERANCES
) -> SingularReport:
    """Real singular points on the characteristic circle at coeffs.t.

    Intersecting the isotropy condition (x^1)^2 - 2 x^0 x^4 = 0 with the
    focal plane x^0 + lam212 x^1 + c22 x^4 = 0 gives the quadratic
    (x^1)^2 + 2 lam212 x^1 x^4 + 2 c22 (x^4)^2 = 0, so the number of real
    points is the sign of D = lam212^2 - 2 c22: two for D > 0, none for
    D < 0, one double point inside the tolerance band.
    """
    if coeffs.r != 1 or coeffs.frame is None:
        raise DomainError("singular_set needs r = 1 coefficients carrying their frame")
    lam = coeffs.lam212
    c = coeffs.c22
    disc = lam * lam - 2.0 * c
    band = tolerances.discriminant * (lam * lam + abs(4.0 * c))
    fr = coeffs.frame

    if disc > band:
        roots = [-lam + math.sqrt(disc), -lam - math.sqrt(disc)]
        degenerate = False
    elif disc < -band:
        roots = []
        degenerate = False
    else:
        roots = [-lam]
        degenerate = True

    points = []
    for x1 in roots:
        x0 = 0.5 * x1 * x1
        z = x0 * fr.a0 + x1 * fr.a1 + fr.a4
        if z[0] <= 0:
            raise FrameConsistencyError("generator point escaped the affine chart")
        p = z[1:-1] / z[0]
        rel = p - fr.center
        ang = math.atan2(float(rel @ fr.w[1]), float(rel @ fr.w[0])) % (2.0 * math.pi)
        points.append(SingularPoint(generator=(x0, x1, 1.0), point=p, angle=ang))

    return SingularReport(
        t=float(coeffs.t),
        discriminant=disc,
        band=band,
        count=len(points),
        points=tuple(points),
        degenerate=degenerate,
        coefficients=coeffs,
    )


# ---------------------------------------------------------------------------
# plane classification


@dataclass(frozen=True)
class PlaneClass:
    kind: str  # smooth_tube | selfintersecting_tube | one_singular_point
    inertia: tuple  # (positive, negative, zero)
    gram: np.ndarray
    tangent_point: Dropped | None

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "inertia": list(self.inertia),
            "gram": self.gram.tolist(),
            "tangent_point": None if self.tangent_point is None else self.tangent_point.to_json(),
        }


def classify_tube_plane(
    vectors, tolerances: Tolerances = DEFAULT_TOLERANCES
) -> PlaneClass:
    """Position of a 3-plane of sphere vectors relative to the n = 3 quadric.

    Restricting the form to the plane: signature (2,1) means the plane meets
    the quadric in a circle (a smooth tube of spheres), positive definite
    (3,0) means no common points (the swept tube self-intersects), and a
    degenerate restriction means tangency: the kernel direction is isotropic
    and drops to the unique singular point.
    """
    rows = []
    for v in vectors:
        coords = v.coords if isinstance(v, PolyVector) else np.asarray(v, dtype=float)
        rows.append(coords)
    b = np.stack(rows)
    if b.shape != (3, 5):
        raise DimensionMismatch(f"expected 3 vectors of length 5, got {b.shape}")
    sv = np.linalg.svd(b, compute_uv=False)
    if sv[-1] <= 1e-10 * sv[0]:
        raise DomainError("spanning vectors are linearly dependent")

    g = form_matrix(3)
    gram = b @ g @ b.T
    gram = 0.5 * (gram + gram.T)
    eigvals, eigvecs = np.linalg.eigh(gram)
    scale = float(np.max(np.abs(eigvals)))
    band = tolerances.lightcone * max(scale, 1e-300)
    n_neg = int(np.sum(eigvals < -band))
    n_zero = int(np.sum(np.abs(eigvals) <= band))
    n_pos = 3 - n_neg - n_zero
    inertia = (n_pos, n_neg, n_zero)

    if n_zero > 0:
        k = int(np.argmin(np.abs(eigvals)))
        z = eigvecs[:, k] @ b
        z = z / np.linalg.norm(z)
        dropped = drop_sphere(PolyVector(z), tolerances)
        return PlaneClass(
            kind="one_singular_point", inertia=inertia, gram=gram, tangent_point=dropped
        )
    if n_neg == 1:
        return PlaneClass(kind="smooth_tube", inertia=inertia, gram=gram, tangent_point=None)
    if n_neg == 0:
        return PlaneClass(
            kind="selfintersecting_tube", inertia=inertia, gram=gram, tangent_point=None
        )
    raise DomainError(
        f"restricted form has inertia {inertia}, impossible for a plane in this model"
    )


# ---------------------------------------------------------------------------
# brute-force rank-drop oracle

# angles scanned per circle, nested-grid refinement of each dip (points per
# round, rounds: the bracket shrinks 16-fold a round), Jacobian difference
# step, singular-value ratio that counts as a rank drop, and the angle
# (radians) within which located drops are merged
_SCAN = 720
_REFINE_POINTS = 33
_REFINE_ROUNDS = 5
_JAC_STEP = 1e-5
_DROP_REL = 1e-6
_MERGE_TOL = 1e-2


@dataclass(frozen=True)
class RankDropReport:
    t: float
    angles: tuple
    points: np.ndarray
    min_ratio: float

    @property
    def count(self) -> int:
        return len(self.angles)

    def to_json(self) -> dict:
        return {
            "t": self.t,
            "count": self.count,
            "angles": [float(a) for a in self.angles],
            "points": [[float(x) for x in row] for row in np.atleast_2d(self.points)]
            if self.count
            else [],
            "min_ratio": self.min_ratio,
        }


def rank_drop_singular_points(family: SphereFamily, t: float) -> RankDropReport:
    """Definitional singularity check: scan one characteristic circle for
    Jacobian rank drops of the envelope chart.

    A circle position is singular when the smaller singular value of the
    (t, angle) Jacobian falls below ``_DROP_REL`` times the larger one;
    candidate dips are located on a grid of ``_SCAN`` angles and sharpened
    on nested grids, each round keeping the two neighbours of its best
    point, then merged within ``_MERGE_TOL`` radians.  This is deliberately
    independent of the adapted-frame pipeline so the two can check each
    other.
    """
    if family.r != 1 or family.dim_n != 3:
        raise DomainError("the rank-drop oracle runs on r = 1 families in R^3")
    t = float(t)
    surf = envelope_surface(family)
    two_pi = 2.0 * math.pi

    def ratio_batch(thetas: np.ndarray) -> np.ndarray:
        k = thetas.size
        u = np.stack([np.full(k, t), thetas], axis=-1)
        cols = []
        for axis in range(2):
            e = np.zeros(2)
            e[axis] = _JAC_STEP
            cols.append((surf.chart(u + e) - surf.chart(u - e)) / (2 * _JAC_STEP))
        jac = np.stack(cols, axis=-1)
        sv = np.linalg.svd(jac, compute_uv=False)
        return sv[:, 1] / sv[:, 0]

    thetas = np.linspace(0.0, two_pi, _SCAN, endpoint=False)
    ratio = ratio_batch(thetas)
    coarse = 5e-2
    spacing = two_pi / _SCAN

    candidates = []
    for i in range(_SCAN):
        if ratio[i] < coarse and ratio[i] <= ratio[i - 1] and ratio[i] <= ratio[(i + 1) % _SCAN]:
            candidates.append(thetas[i])

    accepted = []
    for th0 in candidates:
        lo, hi = th0 - spacing, th0 + spacing
        for _ in range(_REFINE_ROUNDS):
            grid = np.linspace(lo, hi, _REFINE_POINTS)
            fine = ratio_batch(grid)
            best = int(np.argmin(fine))
            lo, hi = grid[max(best - 1, 0)], grid[min(best + 1, _REFINE_POINTS - 1)]
        if fine[best] < _DROP_REL:
            accepted.append(float(grid[best]) % two_pi)

    accepted.sort()
    merged: list[float] = []
    for ang in accepted:
        if merged and min(abs(ang - merged[-1]), two_pi - abs(ang - merged[-1])) < _MERGE_TOL:
            continue
        merged.append(ang)
    if len(merged) > 1:
        gap = min(abs(merged[0] - merged[-1]), two_pi - abs(merged[0] - merged[-1]))
        if gap < _MERGE_TOL:
            merged.pop()

    if merged:
        pts = surf.chart(np.stack([np.full(len(merged), t), np.array(merged)], axis=-1))
    else:
        pts = np.empty((0, 3))
    return RankDropReport(
        t=t, angles=tuple(merged), points=pts, min_ratio=float(np.min(ratio))
    )
