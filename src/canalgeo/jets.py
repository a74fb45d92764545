"""Order-3 jets of parametric hypersurfaces and their adapted frames.

A hypersurface is a chart ``U subset R^(n-1) -> R^n``.  `evaluate_jets`
collects position and all partial derivatives through order three at every
row of a parameter grid, either from an analytic jet callback or by central
finite differences, and attaches an orthonormal tangent frame
``e_1..e_(n-1)`` (Gram-Schmidt on the chart derivatives, in order) plus the
unit normal ``nu`` completing a positively oriented basis of R^n.  The
kernels carry a leading point axis; `evaluate_jet` is a batch of one.

`fundamental_forms` expresses the metric (identity, by construction) and the
second fundamental form in that frame; `gauge_frame` lifts the frame into the
sphere model, producing the moving frame used by the downstream tensor
calculus.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, fields, replace
from itertools import permutations
from typing import Callable

import numpy as np

from .conformal import PolyVector, _lift_rows, form_matrix, inner, lift_point
from .errors import DomainError, FrameConsistencyError, ImmersionError

__all__ = [
    "ParametricSurface",
    "SurfaceJet",
    "ConformalFrame",
    "evaluate_jet",
    "evaluate_jets",
    "fundamental_forms",
    "shape_derivative",
    "gauge_frame",
    "cell_centers",
    "parameter_grid",
]

# Default steps for the finite-difference provider, relative to domain scale.
FD_STEP = 1.0e-4
FD_STEP3 = 1.0e-3
_RANK_TOL = 1.0e-8
# largest Gram residual of a `gauge_frame` against the model form, relative to max(1, |p|^2)
_FRAME_RESIDUAL = 1.0e-8
# Points per batched jet pass.  Larger grids go in chunks, because the
# transient arrays grow with the batch: one FD pass over all 1728 points of a
# 12^3 tube4 grid raised the peak resident size by about 30 MB.
_JET_CHUNK = 512


@dataclass(frozen=True)
class ParametricSurface:
    """Chart of an (n-1)-dimensional hypersurface in R^n.

    Parameters
    ----------
    dim_n:
        Ambient dimension n (the chart has n - 1 parameters).
    chart:
        Vectorized map; accepts parameter arrays of shape (n-1,) or
        (m, n-1) and returns points of shape (n,) or (m, n).  A batched
        call must return, for each row, exactly what a single-row call
        returns; the finite-difference path evaluates its whole stencil in
        one batched call.
    jet:
        Optional analytic jet callback ``u -> (p, d1, d2, d3)`` with
        shapes (n,), (n-1, n), (n-1, n-1, n), (n-1, n-1, n-1, n) for a
        single point; like `chart`, a (m, n-1) batch gives the same tensors
        with a leading m axis, each row as a single-point call gives it.
        `evaluate_jets` names the rows where it is not finite; a row outside
        ``domain`` reaches it as the box centre.  When absent, derivatives
        come from central differences of `chart`.
    domain:
        (n-1, 2) parameter box, used for the default step scale and by
        samplers.
    """

    dim_n: int
    chart: Callable[[np.ndarray], np.ndarray]
    jet: Callable[[np.ndarray], tuple] | None = None
    domain: np.ndarray | None = None
    name: str = ""

    def __post_init__(self):
        if self.dim_n < 3:
            raise DomainError("hypersurface analysis needs ambient dimension n >= 3")
        if self.domain is not None:
            dom = np.asarray(self.domain, dtype=float).reshape(self.dim_n - 1, 2)
            dom.setflags(write=False)
            object.__setattr__(self, "domain", dom)

    @property
    def n_params(self) -> int:
        return self.dim_n - 1

    @functools.cached_property
    def _padded_box(self) -> tuple[np.ndarray, np.ndarray]:
        """Lower and upper parameter bounds, each widened by a relative 1e-9."""
        lo, hi = self.domain[:, 0], self.domain[:, 1]
        pad = 1e-9 * np.maximum(hi - lo, 1.0)
        return lo - pad, hi + pad

    def domain_scale(self) -> float:
        if self.domain is None:
            return 1.0
        widths = self.domain[:, 1] - self.domain[:, 0]
        scale = float(np.max(np.abs(widths)))
        return scale if scale > 0 else 1.0

    def without_analytic_jet(self) -> "ParametricSurface":
        """Copy of this surface forced onto the finite-difference path."""
        return replace(self, jet=None, name=self.name + "(fd)" if self.name else "(fd)")

    def sample_grid(self, counts) -> np.ndarray:
        """Cell-centred grid over the domain box, shape (prod(counts), n-1)."""
        if self.domain is None:
            raise DomainError("surface has no domain box to sample")
        return cell_centers(self.domain, counts)


def cell_centers(domain: np.ndarray, counts) -> np.ndarray:
    """Centres of a regular grid of cells over a box, shape (prod(counts), k).

    ``domain`` is a (k, 2) box; ``counts`` gives the cells per axis (one
    integer broadcasts to every axis).  Axis i takes the values
    ``lo + (hi - lo) / m * (j + 0.5)`` for j < m, and the first axis varies
    slowest.  The counts pass `_grid_counts`.
    """
    counts = _grid_counts(counts, domain.shape[0])
    axes = [lo + (hi - lo) / m * (np.arange(m) + 0.5) for (lo, hi), m in zip(domain, counts)]
    grids = np.meshgrid(*axes, indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=-1)


def _grid_counts(counts, axes: int, what: str = "grid cell counts", width: int = 0) -> list:
    """``counts`` (one, or one per axis) as ``axes`` ints; ``DomainError`` naming ``what`` if one
    is not whole (no truncation), is below 1 (an empty grid would let a caller return a verdict
    from no samples), is an integer beyond the float range, or the grid, ``width or axes`` floats
    a cell, is too large to index."""
    try:
        raw = np.asarray(counts, dtype=float)
    except OverflowError:
        raise DomainError(f"{what} must be within the float range") from None
    if not np.all(np.isfinite(raw) & (raw == np.round(raw))):
        raise DomainError(f"{what} must be whole numbers, got {raw.tolist()}")
    ints = [int(c) for c in np.broadcast_to(raw, (axes,)).tolist()]
    if min(ints) < 1:
        raise DomainError(f"{what} must be at least 1, got {ints}")
    if math.prod(ints) * (width or axes) * 8 > np.iinfo(np.intp).max:
        raise DomainError(f"{what} {ints} make a grid too large for an array")
    return ints


def parameter_grid(params, k: int) -> np.ndarray:
    """An explicit grid of parameter rows as a (P, k) array.

    Raises ``DomainError`` for rows of another width, for a grid with no rows
    (a verdict from no samples) and for a non-finite row, naming the first.
    """
    pts = np.atleast_2d(np.asarray(params, dtype=float))
    if pts.ndim != 2 or pts.shape[1] != k:
        raise DomainError(f"expected rows of {k} parameters, got shape {pts.shape}")
    if pts.shape[0] == 0:
        raise DomainError("parameter grid has no rows")
    if not np.isfinite(pts).all():
        j = int(np.argmin(np.isfinite(pts).all(axis=1)))
        raise DomainError(f"parameter row {j} is not finite: {pts[j].tolist()}")
    return pts


class _RowErrors:
    """The error that each row of a (P, r) parameter batch raises alone, or None: a batched
    pass records its checks in the order one row meets them and runs on past a failed row."""

    def __init__(self, ts: np.ndarray):
        self.ts, self.errors = ts, [None] * len(ts)

    def check(self, bad: np.ndarray, error: Callable, what: str) -> None:
        """Record ``error(what)``, {t} the row's parameter tuple, at each bad row not yet failed."""
        for i in np.flatnonzero(bad).tolist():
            if self.errors[i] is None:
                self.errors[i] = error(what.format(t=tuple(self.ts[i].tolist())))

    def raise_first(self) -> None:
        """Raise the error of the first row that has one."""
        for err in filter(None, self.errors):
            raise err


@dataclass(frozen=True)
class SurfaceJet:
    """Position, derivatives through order 3, and the adapted frame at u.

    `evaluate_jets` gives every array a leading point axis (``u`` (P, n-1),
    ``p`` (P, n), ``d1`` (P, n-1, n), ...); `row` takes out one point.
    """

    u: np.ndarray
    p: np.ndarray
    d1: np.ndarray
    d2: np.ndarray
    d3: np.ndarray
    e: np.ndarray        # (n-1, n) orthonormal tangent rows
    nu: np.ndarray       # (n,) unit normal, positively oriented closure
    basis_change: np.ndarray = field(repr=False, default=None)  # (n-1, n-1) W with e = W @ d1

    @property
    def dim_n(self) -> int:
        return self.p.shape[-1]

    def row(self, i: int) -> "SurfaceJet":
        """Point i of a jet with a leading point axis."""
        w = self.basis_change
        return SurfaceJet(
            self.u[i], self.p[i], self.d1[i], self.d2[i], self.d3[i], self.e[i], self.nu[i], w[i]
        )

    def batch(self) -> "SurfaceJet":
        """This single-point jet as a batch of one."""
        return SurfaceJet(*(np.asarray(getattr(self, f.name))[None] for f in fields(self)))


@dataclass(frozen=True)
class ConformalFrame:
    """Moving frame of the sphere model attached to a surface point.

    ``a0`` is the lifted point, ``tangent`` the n-1 hyperplane lifts dual to
    the tangent frame, ``an`` the tangent hyperplane lift, and ``a_inf`` the
    improper point.  In the ordering (a0, a_i, a_n, a_inf) the scalar
    products of the frame reproduce `form_matrix` up to the verified residual.
    """

    a0: PolyVector
    tangent: tuple[PolyVector, ...]
    an: PolyVector
    a_inf: PolyVector
    residual: float


def _symmetrize3(d3: np.ndarray) -> np.ndarray:
    """Mean of d3 (..., k, k, k, n) over the permutations of its derivative indices."""
    acc = np.zeros_like(d3)
    for axes in _index_permutations(d3.ndim):
        acc += d3.transpose(axes)
    return acc / 6.0


@functools.lru_cache(maxsize=None)
def _index_permutations(ndim: int) -> tuple[tuple, ...]:
    """Axis orders of a (..., k, k, k, n) array permuting its three k axes."""
    lead = tuple(range(ndim - 4))
    shifted = (tuple(len(lead) + a for a in perm) for perm in permutations(range(3)))
    return tuple(lead + axes + (ndim - 1,) for axes in shifted)


def _fd_jet(surface: ParametricSurface, u: np.ndarray):
    """Central differences of the chart at the rows of u, every stencil point in one chart call.

    Second derivatives come from the 2k^2 + 1 point stencil at step h around
    each of 2k + 1 bases: u itself and u +- h3 along each axis.  Third
    derivatives difference the second derivatives of the shifted bases.
    """
    n = surface.dim_n
    rows, k = u.shape
    scale = surface.domain_scale()
    h = FD_STEP * scale
    h3 = FD_STEP3 * scale
    steps = np.eye(k) * h  # row a is h along axis a
    shifts = np.eye(k) * h3

    u = u[:, None]
    bases = np.concatenate([u, u + shifts, u - shifts], axis=1)  # (P, 2k+1, k)
    plus = bases[:, :, None] + steps  # base + e_a, (P, 2k+1, k, k)
    minus = bases[:, :, None] - steps
    ia, ib = np.triu_indices(k, 1)
    stencil = [bases[:, :, None], plus, minus]
    stencil += [side[:, :, ia] + steps[ib] for side in (plus, minus)]  # base +- e_a + e_b
    stencil += [side[:, :, ia] - steps[ib] for side in (plus, minus)]  # base +- e_a - e_b
    counts = [part.shape[2] for part in stencil]
    flat = np.concatenate(stencil, axis=2).reshape(-1, k)
    values = np.asarray(surface.chart(flat), dtype=float).reshape(bases.shape[:2] + (-1, n))
    p0, vp, vm, vpp, vmp, vpm, vmm = np.split(values, np.cumsum(counts)[:-1], axis=2)
    p0 = p0[:, :, 0]

    d2 = np.empty(bases.shape[:2] + (k, k, n))
    diag = (vp - 2 * p0[:, :, None] + vm) / (h * h)
    d2[:, :, np.arange(k), np.arange(k)] = diag
    mixed = (vpp - vpm - vmp + vmm) / (4 * h * h)
    d2[:, :, ia, ib] = mixed
    d2[:, :, ib, ia] = mixed

    p = p0[:, 0]
    d1 = (vp[:, 0] - vm[:, 0]) / (2 * h)
    d3 = (d2[:, 1 : k + 1] - d2[:, k + 1 :]) / (2 * h3)  # axis 1 is the differenced index c
    return p, d1, d2[:, 0], _symmetrize3(np.ascontiguousarray(d3.transpose(0, 2, 3, 1, 4)))


def _generalized_cross(e: np.ndarray) -> np.ndarray:
    """Rows v with det[e_1; ...; e_(n-1); w] = v . w for all w, from e (P, n-1, n)."""
    dropped, signs = _minor_columns(e.shape[-1])
    # minor j drops column j; one stacked det over all n of them at every point
    return signs * np.linalg.det(e[:, :, dropped].transpose(0, 2, 1, 3))


@functools.lru_cache(maxsize=None)
def _minor_columns(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Columns kept by each of the n maximal minors of an (n-1, n) matrix, and their signs."""
    dropped = np.nonzero(~np.eye(n, dtype=bool))[1].reshape(n, n - 1)
    signs = (-1.0) ** (n + np.arange(n) + 1)
    dropped.setflags(write=False)  # shared by every call
    signs.setflags(write=False)
    return dropped, signs


def _pow2_floor(x: np.ndarray) -> np.ndarray:
    """The largest power of two not above each x (0.5 for 0): an exact scale."""
    return np.ldexp(1.0, np.frexp(x)[1] - 1)


def _row_dots(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``x[i] . y[i]`` of (P, m) rows, each the unit-stride BLAS dot of that row alone."""
    x, y = np.ascontiguousarray(x), np.ascontiguousarray(y)
    return np.matmul(x[:, None, :], y[:, :, None])[:, 0, 0]


@np.errstate(all="ignore")
def _orthonormal_frame(d1: np.ndarray):
    """Gram-Schmidt rows of each d1 (P, n-1, n), the normal, W with e = W @ d1, and the
    rank-deficient rows (P,): ||R||_F ||W||_F, which bounds cond(d1) within a factor n - 1,
    is above 1 / _RANK_TOL.

    One stacked QR, of each d1 divided by its power-of-two scale (exact), and one stacked
    det serve the whole batch; a deficient or non-finite row computes on.
    """
    rows, k, n = d1.shape
    s = _pow2_floor(np.max(np.abs(d1), axis=(1, 2)))[:, None, None]
    q, r = np.linalg.qr((d1 / s).transpose(0, 2, 1))
    diag = np.diagonal(r, axis1=1, axis2=2)
    signs = np.where(diag >= 0.0, 1.0, -1.0)
    q = q * signs[:, None, :]
    r = r * signs[:, :, None]
    e = q.transpose(0, 2, 1)  # rows orthonormal, e = W @ d1 with W = inv(R^T) / s
    # forward substitution for inv(R^T), one pivot column at a time for every column
    lower = r.transpose(0, 2, 1)
    pivots = 1.0 / np.abs(diag)  # the diagonal of the sign-fixed r
    w = np.eye(k)[None].repeat(rows, axis=0)
    for m in range(k):
        w[:, m] *= pivots[:, m, None]
        w[:, m + 1 :] -= lower[:, m + 1 :, m : m + 1] * w[:, m, None]
    condition = np.linalg.norm(r, axis=(1, 2)) * np.linalg.norm(w, axis=(1, 2))
    deficient = ~(condition <= 1.0 / _RANK_TOL)  # a nan product is deficient too
    nu = np.ascontiguousarray(_generalized_cross(e))
    nu = nu / np.sqrt(_row_dots(nu, nu))[:, None]
    return e, nu, w / s, deficient


def evaluate_jets(surface: ParametricSurface, params) -> SurfaceJet:
    """Jets and adapted frames at every row of a (P, n-1) parameter grid.

    Returns one `SurfaceJet` whose arrays carry a leading point axis.  An
    analytic jet callback takes the whole grid in one call; without one,
    second-order central differences (third derivatives by differencing the
    finite-difference second derivatives) evaluate the stencils of every
    point in one batched `chart` call.  Grids of more than ``_JET_CHUNK``
    points take one such pass per chunk.  A grid with a failing row raises
    the typed error that the first failing row raises alone, from the
    `_RowErrors` record of one pass; a callback's own raise propagates.
    """
    u = parameter_grid(params, surface.n_params)
    chunks = [_jets(surface, u[i : i + _JET_CHUNK]) for i in range(0, len(u), _JET_CHUNK)]
    if len(chunks) == 1:
        return chunks[0]
    names = [f.name for f in fields(SurfaceJet)]
    return SurfaceJet(*(np.concatenate([getattr(c, name) for c in chunks]) for name in names))


def _jets(surface: ParametricSurface, u: np.ndarray) -> SurfaceJet:
    """The jets of one chunk, checked in one row's order: the domain box (such a row is
    evaluated at the box centre), a finite jet, a well-conditioned d1, a finite W."""
    errors = _RowErrors(u)
    at = u
    if surface.domain is not None:
        low, high = surface._padded_box
        outside = ((u < low) | (u > high)).any(axis=1)
        errors.check(outside, DomainError, "parameter {t} outside the domain box")
        at = np.where(outside[:, None], surface.domain.mean(axis=1), u)

    rows, k, n = u.shape[0], surface.n_params, surface.dim_n
    tensors = surface.jet(at) if surface.jet is not None else _fd_jet(surface, at)
    # C order, so that every kernel below sees each point laid out alike in any batch
    p, d1, d2, d3 = (
        np.ascontiguousarray(t, dtype=float).reshape((rows,) + (k,) * j + (n,))
        for j, t in enumerate(tensors)
    )
    finite = np.isfinite(np.hstack([t.reshape(rows, -1) for t in (p, d1, d2, d3)])).all(axis=1)
    if surface.jet is not None:
        what = "not differentiable at {t}: an elementary function is undefined or overflows there"
        errors.check(~finite, DomainError, what)
    else:
        errors.check(~finite, ImmersionError, "chart derivative is not finite at {t}")

    e, nu, w, deficient = _orthonormal_frame(d1)
    errors.check(deficient, ImmersionError, "chart derivative is rank-deficient at {t}")
    what = "chart derivative underflows floating point at {t}"
    errors.check(~np.isfinite(w).all(axis=(1, 2)), ImmersionError, what)
    errors.raise_first()
    return SurfaceJet(u=u, p=p, d1=d1, d2=d2, d3=d3, e=e, nu=nu, basis_change=w)


def evaluate_jet(surface: ParametricSurface, u) -> SurfaceJet:
    """Position, derivatives through order 3, and the adapted frame at ``u``.

    A batch of one through `evaluate_jets`: analytic derivatives when the
    surface carries a jet callback, central differences of the chart
    otherwise.
    """
    u = np.asarray(u, dtype=float).reshape(-1)
    if u.size != surface.n_params:
        raise DomainError(
            f"chart of {surface.dim_n}-dimensional ambient space expects "
            f"{surface.n_params} parameters, got {u.size}"
        )
    return evaluate_jets(surface, u[None]).row(0)


def _second_form_params(jet: SurfaceJet) -> np.ndarray:
    """``nu . p_{,ab}`` at every point, (P, k, k): one stacked product per point."""
    return (jet.d2 @ jet.nu[:, None, :, None])[..., 0]


def fundamental_forms(jet: SurfaceJet) -> tuple[np.ndarray, np.ndarray]:
    """Metric and second fundamental form in the orthonormal tangent frame.

    The metric is the identity by construction.  The shape components are
    ``h_ij = nu . (d^2 p)(e_i, e_j)``, obtained from the parameter-space
    second derivatives by the Gram-Schmidt change of basis.  A jet with a
    leading point axis gives forms with that axis; a single point is a
    batch of one.
    """
    if jet.p.ndim == 1:
        g, h = fundamental_forms(jet.batch())
        return g[0], h[0]
    w = jet.basis_change
    b_param = _second_form_params(jet)
    h = w @ b_param @ w.transpose(0, 2, 1)
    h = 0.5 * (h + h.transpose(0, 2, 1))
    g = np.repeat(np.eye(h.shape[-1])[None], h.shape[0], axis=0)
    return g, h


def shape_derivative(jet: SurfaceJet) -> np.ndarray:
    """Covariant derivative of the shape tensor in the orthonormal frame.

    Computed in parameter coordinates from the order-3 jet,

        D_c b_ab = nu . p_{,abc} - b_c^d (p_{,d} . p_{,ab})
                   - Gamma^d_{ca} b_db - Gamma^d_{cb} b_ad,

    then pushed into the frame.  Flat ambient space makes the result totally
    symmetric; the residual from exact symmetry is a numerical health check.
    The inverse metric is W^T W, as W g W^T = I for g = d1 d1^T.  Each row runs
    on its jet divided by s, the largest power of two not above that row's
    largest |d1| entry (and W times s), so that neither W^T W nor a product
    with d1 overflows or underflows; scaling by a power of two is exact.  A jet
    with a leading point axis gives a (P, k, k, k) stack; a single point is a
    batch of one.  lam3 scales as 1/length^2 and leaves the
    floating-point range before the metric does: a row whose result is not
    finite raises `ImmersionError` naming that overflow and the first such row.
    """
    if jet.p.ndim == 1:
        return shape_derivative(jet.batch())[0]
    s = _pow2_floor(np.max(np.abs(jet.d1), axis=(1, 2)))[:, None, None]
    jet = replace(
        jet,
        d1=jet.d1 / s,
        d2=jet.d2 / s[..., None],
        d3=jet.d3 / s[..., None, None],
        basis_change=jet.basis_change * s,
    )
    w = jet.basis_change
    ginv = w.transpose(0, 2, 1) @ w
    b = _second_form_params(jet)                       # b_ab
    gam_low = np.einsum("...abm,...dm->...abd", jet.d2, jet.d1)   # p_{,ab} . p_{,d}
    gam = np.einsum("...ed,...abd->...abe", ginv, gam_low)    # Gamma^e_ab
    b_mixed = ginv @ b                                  # b^d_c indexed [d, c]

    db = np.einsum("...abcm,...m->...abc", jet.d3, jet.nu)
    db -= np.einsum("...dc,...abd->...abc", b_mixed, gam_low)
    nabla = (
        db
        - np.einsum("...cad,...db->...abc", gam, b)
        - np.einsum("...cbd,...ad->...abc", gam, b)
    )
    lam3 = np.einsum("...ia,...jb,...kc,...abc->...ijk", w, w, w, nabla)
    with np.errstate(over="ignore"):
        lam3 = lam3 / s[..., None] / s[..., None]
    bad = ~np.isfinite(lam3).all(axis=(1, 2, 3))
    if bad.any():
        u = jet.u[int(np.argmax(bad))]
        raise ImmersionError(f"third-order data overflows floating point at u={u.tolist()}")
    return lam3


def gauge_frame(jet: SurfaceJet) -> ConformalFrame:
    """Lift the adapted Euclidean frame into the sphere model.

    Produces ``A_0 = (1, p, |p|^2/2)``, tangent hyperplane lifts
    ``A_i = (0, e_i, p . e_i)``, the tangent-plane lift
    ``A_n = (0, nu, p . nu)`` and the improper point ``(0, ..., 0, 1)``.
    The full Gram matrix is verified against its target before returning.
    """
    n = jet.dim_n
    p = jet.p

    a0 = lift_point(p)
    mids = _lift_rows(0.0, jet.e, [float(p @ e_i) for e_i in jet.e])
    an = _lift_rows(0.0, jet.nu, float(p @ jet.nu))
    ainf = _lift_rows(0.0, np.zeros(n), 1.0)

    basis = np.stack([a0.coords, *mids, an, ainf])
    gram = inner(basis[:, None], basis[None])
    residual = float(np.max(np.abs(gram - form_matrix(n))))
    if residual > _FRAME_RESIDUAL * max(1.0, float(p @ p)):
        raise FrameConsistencyError(
            f"conformal frame violates its scalar-product relations (residual {residual:.3e})"
        )
    return ConformalFrame(
        a0=a0,
        tangent=tuple(PolyVector(m, n) for m in mids),
        an=PolyVector(an, n),
        a_inf=PolyVector(ainf, n),
        residual=residual,
    )
