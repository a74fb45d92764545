"""Adapted frames along sphere curves, focal determinants, and singular points.

For a one-parameter family in R^3 the envelope is swept by characteristic
circles.  Along the lifted curve A_3(t) we build the frame {A_0..A_4} with
A_0, A_4 antipodal isotropic points of the circle, A_1 the circle tangent,
A_2 the normalized curve velocity.  Reading the derivative of A_2 off against
the frame yields the three structure coefficients that control where the
envelope fails to be immersed: the roots of

    (x^1)^2 + 2*lam212 * x^1 x^4 + 2*c22 * (x^4)^2 = 0

on the isotropy quadric of the generator plane are the singular points, so
their count is decided by the discriminant lam212^2 - 2*c22.  The frame and
A_2' are closed form in the order-2 member jet at t, so no difference step
enters the coefficients.  `adapted_frames` builds them for a whole t grid in
one batched pass (one member jet, one lift and one characteristic call), each
row bit for bit the frame of its t alone, and records in a `jets._RowErrors`
the error that each failing row raises alone; `adapted_frame_coefficients` is
row 0 of a batch of one, and `_singular_rows` is `singular_set` on every row
of one pass.  The circle (centre, radius and plane basis) is the one
`envelope_surface` draws, from the same closed-form
`envelope._characteristic`, so the angle of a singular point on its circle is
its chart coordinate:
``envelope_surface(family).chart([t, angle])`` is the point.

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
from .conformal import Dropped, PolyVector, _lift_rows, drop_sphere, inner
from .envelope import (
    SphereFamily,
    _characteristic,
    _circle_points,
    _lift_jet,
    _spherical_unit,
)
from .errors import (
    CanalGeoError,
    DegenerateFrameError,
    DimensionMismatch,
    DomainError,
    FrameConsistencyError,
)
from .jets import _row_dots, _RowErrors, parameter_grid

__all__ = [
    "GeneratorFrame",
    "FocalCoefficients",
    "SingularPoint",
    "SingularReport",
    "PlaneClass",
    "RankDropReport",
    "adapted_frame_coefficients",
    "adapted_frames",
    "focal_determinant",
    "constraint_residual",
    "singular_set",
    "classify_tube_plane",
    "rank_drop_singular_points",
]

_OMEGA_REL = 1e-8


@dataclass(frozen=True)
class GeneratorFrame:
    """Adapted frame at one parameter of an r = 1 family in R^3.

    a0 and a4 are isotropic lifts of antipodal points x0, x4 of the
    characteristic circle with (a0, a4) = -1; a1 is the unit circle tangent
    at x0, pointing along increasing chart angle; a2 the unit curve
    velocity; a3 the enveloped sphere itself.  w (2, 3) is the envelope
    chart's plane basis at t and angle the chart angle of x0.
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


def adapted_frame_coefficients(family: SphereFamily, t: float) -> FocalCoefficients:
    """Structure coefficients lam22, lam212, c22 of an r = 1 family in R^3 at t.

    Row 0 of `adapted_frames` on the batch of one [[t]]; a grid of t takes
    one `adapted_frames` call instead of one call per t.
    """
    return adapted_frames(family, [[float(t)]])[0]


def adapted_frames(family: SphereFamily, ts) -> list[FocalCoefficients]:
    """Structure coefficients lam22, lam212, c22 of an r = 1 family in R^3 at
    every row of a (P, 1) parameter grid, one `FocalCoefficients` per row.

    The frame is closed form in the order-2 member jet at t.  With s = |c'|,
    T = c'/s, the characteristic circle has centre C = c + delta T and radius
    R, delta = -rho rho'/s and R^2 = rho^2 - delta^2.  Past the spacelike
    check R^2 > 0 holds in exact arithmetic, since R^2 = rho^2 (1 -
    rho'^2/s^2) and (A', A') = (s^2 - rho'^2)/rho^2 share their sign.  The
    circle, with the plane basis (W_0, W_1), comes from the envelope chart's
    `_characteristic`, so x = C + R (cos th W_0 + sin th W_1) is the chart
    point at angle th.

    No t-derivative of the circle enters.  With sigma = |A_3'| and A_2 =
    A_3'/sigma, (A_0, A_2) = (A_1, A_2) = 0 at every t, so omega = (A_0', A_2)
    = -(A_0, A_2') and (A_1', A_2) = -(A_1, A_2').  The coefficients are the
    components of the Darboux curvature vector K = (A_2' + sigma A_3)/sigma
    in the generator's null frame: lam22 = 1/(A_0, K), lam212 = (A_1, K)/(A_0,
    K) and c22 = (A_4, K)/(A_0, K), so lam212^2 - 2 c22 = lam22^2 (K, K).

    The base point x0 is the one of the 8 angles k pi/8 with the largest
    |omega|; a fixed angle would sweep through singular points, where omega
    vanishes.  If even that |omega| is at most ``_OMEGA_REL`` R sigma, a bound
    whose ratio to omega translation, dilation and reparametrization leave
    alone, the frame is degenerate: so it is for spheres through one fixed
    circle.  A_1 is the unit circle tangent at x0 along increasing chart angle.

    The grid makes one `_row_jets`, one `_lift_jet` and one `_characteristic`
    call; each step is elementwise, a per-row BLAS product or the form
    `conformal.inner`, so a row's bits do not depend on its batch.  A failing
    row raises the first error of the record `_adapted_rows` keeps: the one
    the first failing row raises alone.
    """
    rows, errors = _adapted_rows(family, ts)
    errors.raise_first()
    return rows


@np.errstate(all="ignore")
def _adapted_rows(family: SphereFamily, ts) -> tuple[list, _RowErrors]:
    """The pass of `adapted_frames`: coefficients, None at a failed row, and the record of
    row errors, checked in one row's order: member jet, spacelike, reference frame (at every
    row not yet failed), the checks of `_characteristic`, point circle, omega bound, |lam22|;
    a family other than r = 1 in R^3 and a grid that is not (P, 1) and finite raise at once."""
    if family.r != 1 or family.dim_n != 3:
        raise DomainError("adapted frames are computed for r = 1 families in R^3")
    ts = parameter_grid(ts, 1)
    jet, errors = family._row_jets(ts)
    a3, da, d2a = _lift_jet(jet)
    da3, d2a3 = da[:, 0], d2a[:, 0, 0]
    speed2 = inner(da3, da3)
    what = "family is not spacelike at t={t[0]}; no adapted frame exists"
    errors.check(~(np.isfinite(speed2) & (speed2 > 0)), DomainError, what)
    speed = np.sqrt(speed2)
    a2 = da3 / speed[:, None]
    dspeed = inner(da3, d2a3) / speed
    da2 = d2a3 / speed[:, None] - da3 * (dspeed / speed2)[:, None]

    try:
        reference = family._reference_frame
    except CanalGeoError as err:  # the whole family fails: so does every row not yet failed
        errors.errors = [err if e is None else e for e in errors.errors]
        return [None] * len(ts), errors
    circle = _characteristic(jet, errors, reference)
    center, radius, w = circle.center, circle.radius, circle.w
    what = "characteristic circle degenerated to a point at t={t[0]}"
    errors.check(radius <= 1e-6 * jet.rho, DegenerateFrameError, what)

    rows = np.arange(len(ts))
    angles = np.arange(8) * (math.pi / 8.0)
    cs, sn = np.cos(angles)[:, None], np.sin(angles)[:, None]
    units = cs * w[:, None, 0] + sn * w[:, None, 1]  # (P, 8, 3)
    x0s = center[:, None] + radius[:, None, None] * units
    omegas = -inner(_lift_rows(1.0, x0s, 0.5 * np.sum(x0s * x0s, axis=2)), da2[:, None])
    k = np.argmax(np.abs(omegas), axis=1)
    omega = omegas[rows, k]
    what = "transverse rate vanished at every frame angle at t={t[0]}"
    errors.check(~(np.abs(omega) > _OMEGA_REL * radius * speed), DegenerateFrameError, what)

    x0 = x0s[rows, k]
    x4 = center - radius[:, None] * units[rows, k]
    perp = -sn[k] * w[:, 0] + cs[k] * w[:, 1]
    a0 = _lift_rows(1.0, x0, 0.5 * _row_dots(x0, x0))
    a4 = _lift_rows(1.0, x4, 0.5 * _row_dots(x4, x4)) / (2.0 * radius * radius)[:, None]
    a1 = _lift_rows(0.0, perp, _row_dots(x0, perp))

    lam22 = -speed / omega
    what = "curve velocity vanished at t={t[0]}"
    errors.check(np.abs(lam22) <= 1e-12, DegenerateFrameError, what)
    lam212 = -inner(a1, da2) / omega
    c22 = -inner(da2, a4) / omega
    vectors = dict(a0=a0, a1=a1, a2=a2, a3=a3, a4=a4, x0=x0, x4=x4, center=center, w=w)
    out = [None] * len(ts)
    for i, t in enumerate(ts[:, 0].tolist()):
        if errors.errors[i] is not None:
            continue
        frame = GeneratorFrame(
            t=t,
            radius=float(radius[i]),
            angle=float(angles[k[i]]),
            **{name: v[i] for name, v in vectors.items()},
        )
        out[i] = FocalCoefficients(
            r=1,
            lam_pq=lam22[i, None, None],
            lam_apq=lam212[i, None, None, None],
            c_pq=c22[i, None, None],
            t=t,
            omega_rate=float(omega[i]),
            frame=frame,
        )
    return out, errors


# ---------------------------------------------------------------------------
# singular points on a characteristic circle


@dataclass(frozen=True)
class SingularPoint:
    generator: tuple  # (x0, x1, x4) frame coordinates
    point: np.ndarray  # location in R^3
    angle: float  # position on the characteristic circle


@dataclass(frozen=True)
class SingularReport:
    t: float
    discriminant: float
    band: float
    count: int
    points: tuple
    degenerate: bool
    coefficients: FocalCoefficients
    residual: float = 0.0  # largest |x1^2 - 2 x0 x4|, |x0 + lam212 x1 + c22 x4| of the points


def singular_set(
    coeffs: FocalCoefficients, tolerances: Tolerances = DEFAULT_TOLERANCES
) -> SingularReport:
    """Real singular points on the characteristic circle at coeffs.t.

    Intersecting the isotropy condition (x^1)^2 - 2 x^0 x^4 = 0 with the
    focal plane x^0 + lam212 x^1 + c22 x^4 = 0 gives the quadratic
    (x^1)^2 + 2 lam212 x^1 x^4 + 2 c22 (x^4)^2 = 0, so the number of real
    points is the sign of D = lam212^2 - 2 c22: two for D > 0, none for
    D < 0, one double point inside the tolerance band.  D and lam22 both
    depend on the frame's base point, but D / lam22^2 = (K, K) does not (it is
    (rho kappa)^2 - 1 on a constant-radius tube), so the band is
    ``tolerances.discriminant * lam22^2``.
    """
    if coeffs.r != 1 or coeffs.frame is None:
        raise DomainError("singular_set needs r = 1 coefficients carrying their frame")
    lam = coeffs.lam212
    c = coeffs.c22
    disc = lam * lam - 2.0 * c
    band = tolerances.discriminant * coeffs.lam22**2
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

    points, residual = [], 0.0
    for x1 in roots:
        x0, x4 = 0.5 * x1 * x1, 1.0
        residual = max(residual, abs(x1 * x1 - 2.0 * x0 * x4), abs(x0 + lam * x1 + c * x4))
        z = x0 * fr.a0 + x1 * fr.a1 + fr.a4
        if z[0] <= 0:
            raise FrameConsistencyError("generator point escaped the affine chart")
        p = z[1:-1] / z[0]
        rel = p - fr.center
        ang = math.atan2(float(rel @ fr.w[1]), float(rel @ fr.w[0])) % (2.0 * math.pi)
        points.append(SingularPoint(generator=(x0, x1, x4), point=p, angle=ang))

    return SingularReport(
        t=float(coeffs.t),
        discriminant=disc,
        band=band,
        count=len(points),
        points=tuple(points),
        degenerate=degenerate,
        coefficients=coeffs,
        residual=residual,
    )


def _singular_rows(family: SphereFamily, ts, tolerances: Tolerances = DEFAULT_TOLERANCES) -> list:
    """The `singular_set` report of each row of a (P, 1) grid, or the `CanalGeoError` the row
    raises alone (its frame's or `singular_set`'s), from one `_adapted_rows` pass."""
    frames, errors = _adapted_rows(family, ts)
    out = []
    for coeffs, error in zip(frames, errors.errors):
        try:
            out.append(error or singular_set(coeffs, tolerances))
        except CanalGeoError as err:
            out.append(err)
    return out


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

    A plane is a span, so the vectors are first divided by the power of two
    2^e that bounds their largest entry, an exact step: the class and the
    tangent point do not depend on their scale.  ``gram`` is the Gram matrix
    of the given vectors, the scaled one times 4^e; a plane whose Gram
    matrix overflows raises `DomainError`.
    """
    rows = []
    for v in vectors:
        coords = v.coords if isinstance(v, PolyVector) else np.asarray(v, dtype=float)
        rows.append(coords)
    b = np.stack(rows)
    if b.shape != (3, 5):
        raise DimensionMismatch(f"expected 3 vectors of length 5, got {b.shape}")
    e = int(np.frexp(np.max(np.abs(b)))[1])
    b = np.ldexp(b, -e)
    sv = np.linalg.svd(b, compute_uv=False)
    if sv[-1] <= 1e-10 * sv[0]:
        raise DomainError("spanning vectors are linearly dependent")

    scaled = inner(b[:, None], b[None])
    scaled = 0.5 * (scaled + scaled.T)
    with np.errstate(over="ignore"):
        gram = np.ldexp(scaled, 2 * e)
    if not np.isfinite(gram).all():
        raise DomainError("the Gram matrix of the spanning vectors overflows")
    eigvals, eigvecs = np.linalg.eigh(scaled)
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


def _singular_ratio(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """s2 / s1 of each 3 x 2 matrix [a | b] from rows a, b (k, 3), in closed form.

    s1 s2 = |a x b| and s1^2 = (|a|^2 + |b|^2 + sqrt((|a|^2 - |b|^2)^2 + 4 (a.b)^2)) / 2,
    so s2 / s1 = |a x b| / s1^2: every term is a sum of squares, with no cancellation.
    """
    a0, a1, a2 = a.T
    b0, b1, b2 = b.T
    aa = a0 * a0 + a1 * a1 + a2 * a2
    bb = b0 * b0 + b1 * b1 + b2 * b2
    ab = a0 * b0 + a1 * b1 + a2 * b2
    c0, c1, c2 = a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0
    s1_sq = 0.5 * (aa + bb + np.sqrt((aa - bb) ** 2 + 4.0 * ab * ab))
    return np.sqrt(c0 * c0 + c1 * c1 + c2 * c2) / s1_sq


@dataclass(frozen=True)
class RankDropReport:
    t: float
    angles: tuple
    points: np.ndarray
    min_ratio: float

    @property
    def count(self) -> int:
        return len(self.angles)


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

    The Jacobian is the central difference of the envelope chart with step
    ``_JAC_STEP``.  Each call builds the circles at t - step, t and t + step
    once (one batched member jet and one `_characteristic` pass, in the
    chart's increasing-t order, so a failing row raises the chart's error)
    and takes every scan, refinement and final point from them with the
    chart's own point formula, `envelope._circle_points`.  All dips are
    refined together: each round is one batched evaluation over every dip's
    grid.  The singular-value ratio of each 3 x 2 Jacobian is closed form
    (`_singular_ratio`), not an SVD.  A t so large that t +- step rounds to
    t raises `DomainError`.
    """
    if family.r != 1 or family.dim_n != 3:
        raise DomainError("the rank-drop oracle runs on r = 1 families in R^3")
    t = float(parameter_grid(t, 1)[0, 0])
    reference = family._reference_frame  # before any member jet at t, as `envelope_surface` does
    ts = [t - _JAC_STEP, t, t + _JAC_STEP]
    if not ts[0] < ts[1] < ts[2]:
        raise DomainError(
            f"the oracle step {_JAC_STEP} is lost to rounding at t={t}: "
            "t - step, t and t + step are not distinct"
        )
    jet, errors = family._row_jets(np.array(ts)[:, None])
    circles = _characteristic(jet, errors, reference)
    errors.raise_first()
    two_pi = 2.0 * math.pi

    def ratio_batch(thetas: np.ndarray) -> np.ndarray:
        flat = thetas.ravel()
        k = flat.size
        angles = np.concatenate([flat, flat + _JAC_STEP, flat - _JAC_STEP])
        units = _spherical_unit(angles[:, None])[:, :, None]
        # circle rows 0, 1, 2 are t - step, t, t + step: the +-t and the +-angle differences
        a = _circle_points(circles, 2, units[:k]) - _circle_points(circles, 0, units[:k])
        turned = _circle_points(circles, 1, units[k:])
        b = turned[:k] - turned[k:]
        return _singular_ratio(a / (2 * _JAC_STEP), b / (2 * _JAC_STEP)).reshape(thetas.shape)

    thetas = np.linspace(0.0, two_pi, _SCAN, endpoint=False)
    ratio = ratio_batch(thetas)
    coarse = 5e-2
    spacing = two_pi / _SCAN

    # local minima of the circular scan, each refined on its own row of one nested grid
    dip = (ratio < coarse) & (ratio <= np.roll(ratio, 1)) & (ratio <= np.roll(ratio, -1))
    accepted = []
    if dip.any():
        lo, hi = thetas[dip] - spacing, thetas[dip] + spacing
        dips = np.arange(lo.size)
        for _ in range(_REFINE_ROUNDS):
            grid = np.linspace(lo, hi, _REFINE_POINTS, axis=-1)
            fine = ratio_batch(grid)
            best = np.argmin(fine, axis=1)
            lo = grid[dips, np.maximum(best - 1, 0)]
            hi = grid[dips, np.minimum(best + 1, _REFINE_POINTS - 1)]
        found = fine[dips, best] < _DROP_REL
        accepted = [float(ang) % two_pi for ang in grid[dips, best][found]]

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

    pts = _circle_points(circles, 1, _spherical_unit(np.array(merged)[:, None])[:, :, None])
    return RankDropReport(
        t=t, angles=tuple(merged), points=pts, min_ratio=float(np.min(ratio))
    )
