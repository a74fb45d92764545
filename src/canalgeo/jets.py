"""Order-3 jets of parametric hypersurfaces and their adapted frames.

A hypersurface is a chart ``U subset R^(n-1) -> R^n``.  `evaluate_jet`
collects position and all partial derivatives through order three, either
from an analytic jet callback or by central finite differences, and attaches
an orthonormal tangent frame ``e_1..e_(n-1)`` (Gram-Schmidt on the chart
derivatives, in order) plus the unit normal ``nu`` completing a positively
oriented basis of R^n.

`fundamental_forms` expresses the metric (identity, by construction) and the
second fundamental form in that frame; `gauge_frame` lifts the frame into the
sphere model, producing the moving frame used by the downstream tensor
calculus.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from itertools import permutations
from typing import Callable

import numpy as np

from .config import DEFAULT_TOLERANCES, Tolerances
from .conformal import PolyVector, form_matrix, lift_point
from .errors import DomainError, FrameConsistencyError, ImmersionError

__all__ = [
    "ParametricSurface",
    "SurfaceJet",
    "ConformalFrame",
    "evaluate_jet",
    "fundamental_forms",
    "gauge_frame",
    "cell_centers",
]

# Default steps for the finite-difference provider, relative to domain scale.
FD_STEP = 1.0e-4
FD_STEP3 = 1.0e-3
_RANK_TOL = 1.0e-8


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
        shapes (n,), (n-1, n), (n-1, n-1, n), (n-1, n-1, n-1, n).
        When absent, derivatives come from central differences of `chart`.
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
    slowest.  A count below 1 raises ``DomainError``: an empty grid would let
    a caller return a verdict from no samples.
    """
    counts = np.broadcast_to(np.asarray(counts, dtype=int), (domain.shape[0],))
    if np.any(counts < 1):
        raise DomainError(f"grid cell counts must be at least 1, got {counts.tolist()}")
    axes = [lo + (hi - lo) / m * (np.arange(m) + 0.5) for (lo, hi), m in zip(domain, counts)]
    grids = np.meshgrid(*axes, indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=-1)


@dataclass(frozen=True)
class SurfaceJet:
    """Position, derivatives through order 3, and the adapted frame at u."""

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
        return self.p.size


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

    def vectors(self) -> list[PolyVector]:
        return [self.a0, *self.tangent, self.an, self.a_inf]


def _symmetrize3(d3: np.ndarray) -> np.ndarray:
    acc = np.zeros_like(d3)
    for perm in permutations(range(3)):
        acc += np.transpose(d3, perm + (3,))
    return acc / 6.0


def _fd_jet(surface: ParametricSurface, u: np.ndarray):
    """Central differences of the chart, all stencil points in one chart call.

    Second derivatives come from the 2k^2 + 1 point stencil at step h around
    each of 2k + 1 bases: u itself and u +- h3 along each axis.  Third
    derivatives difference the second derivatives of the shifted bases.
    """
    n = surface.dim_n
    k = surface.n_params
    scale = surface.domain_scale()
    h = FD_STEP * scale
    h3 = FD_STEP3 * scale
    steps = np.eye(k) * h  # row a is h along axis a
    shifts = np.eye(k) * h3

    bases = np.concatenate([u[None], u + shifts, u - shifts])  # (2k+1, k)
    plus = bases[:, None] + steps  # base + e_a, (2k+1, k, k)
    minus = bases[:, None] - steps
    ia, ib = np.triu_indices(k, 1)
    stencil = [bases[:, None], plus, minus]
    stencil += [side[:, ia] + steps[ib] for side in (plus, minus)]  # base +- e_a + e_b
    stencil += [side[:, ia] - steps[ib] for side in (plus, minus)]  # base +- e_a - e_b
    counts = [part.shape[1] for part in stencil]
    flat = np.concatenate(stencil, axis=1).reshape(-1, k)
    values = np.asarray(surface.chart(flat), dtype=float).reshape(bases.shape[0], -1, n)
    p0, vp, vm, vpp, vmp, vpm, vmm = np.split(values, np.cumsum(counts)[:-1], axis=1)
    p0 = p0[:, 0]

    d2 = np.empty((bases.shape[0], k, k, n))
    diag = (vp - 2 * p0[:, None] + vm) / (h * h)
    d2[:, np.arange(k), np.arange(k)] = diag
    mixed = (vpp - vpm - vmp + vmm) / (4 * h * h)
    d2[:, ia, ib] = mixed
    d2[:, ib, ia] = mixed

    p = p0[0]
    d1 = (vp[0] - vm[0]) / (2 * h)
    d3 = (d2[1 : k + 1] - d2[k + 1 :]) / (2 * h3)  # axis 0 is the differenced index c
    return p, d1, d2[0], _symmetrize3(np.ascontiguousarray(np.moveaxis(d3, 0, 2)))


def _generalized_cross(e: np.ndarray) -> np.ndarray:
    """Vector v with det[e_1; ...; e_(n-1); w] = v . w for all w."""
    k, n = e.shape
    # minor j drops column j; one batched det over all n of them
    dropped = np.nonzero(~np.eye(n, dtype=bool))[1].reshape(n, n - 1)
    minors = e[:, dropped].transpose(1, 0, 2)
    return (-1.0) ** (n + np.arange(n) + 1) * np.linalg.det(minors)


def _orthonormal_frame(d1: np.ndarray):
    """Gram-Schmidt rows of d1 plus the normal; raises on rank deficiency."""
    k, n = d1.shape
    if not np.isfinite(d1).all():
        raise ImmersionError("chart derivative is not finite")
    q, r = np.linalg.qr(d1.T)
    diag = np.diag(r).copy()
    smallest = np.min(np.abs(diag))
    largest = np.max(np.abs(diag))
    if largest == 0.0 or smallest < _RANK_TOL * largest:
        raise ImmersionError(
            f"chart derivative is rank-deficient (singular ratio {smallest:.3e} / {largest:.3e})"
        )
    signs = np.where(diag >= 0.0, 1.0, -1.0)
    q = q * signs
    r = r * signs[:, None]
    e = q.T  # rows orthonormal, e = W @ d1 with W = inv(R^T)
    # forward substitution for W, one pivot column at a time for every column
    lower = r.T
    pivots = 1.0 / np.diag(lower)
    w = np.eye(k)
    for m in range(k):
        w[m] *= pivots[m]
        w[m + 1 :] -= lower[m + 1 :, m : m + 1] * w[m]
    nu = _generalized_cross(e)
    nu = nu / np.linalg.norm(nu)
    return e, nu, w


def evaluate_jet(surface: ParametricSurface, u) -> SurfaceJet:
    """Position, derivatives through order 3, and the adapted frame at ``u``.

    Uses the analytic jet callback when the surface carries one, otherwise
    second-order central differences (third derivatives by differencing the
    finite-difference second derivatives), with every stencil point
    evaluated in one batched `chart` call.
    """
    u = np.asarray(u, dtype=float).reshape(-1)
    if u.size != surface.n_params:
        raise DomainError(
            f"chart of {surface.dim_n}-dimensional ambient space expects "
            f"{surface.n_params} parameters, got {u.size}"
        )
    if surface.domain is not None:
        lo, hi = surface.domain[:, 0], surface.domain[:, 1]
        pad = 1e-9 * np.maximum(hi - lo, 1.0)
        if np.any(u < lo - pad) or np.any(u > hi + pad):
            raise DomainError(f"parameter {u.tolist()} outside the domain box")

    if surface.jet is not None:
        p, d1, d2, d3 = surface.jet(u)
        k, n = surface.n_params, surface.dim_n
        p = np.asarray(p, dtype=float).reshape(n)
        d1 = np.asarray(d1, dtype=float).reshape(k, n)
        d2 = np.asarray(d2, dtype=float).reshape(k, k, n)
        d3 = np.asarray(d3, dtype=float).reshape(k, k, k, n)
    else:
        p, d1, d2, d3 = _fd_jet(surface, u)

    e, nu, w = _orthonormal_frame(d1)
    return SurfaceJet(u=u, p=p, d1=d1, d2=d2, d3=d3, e=e, nu=nu, basis_change=w)


def fundamental_forms(jet: SurfaceJet) -> tuple[np.ndarray, np.ndarray]:
    """Metric and second fundamental form in the orthonormal tangent frame.

    The metric is the identity by construction.  The shape components are
    ``h_ij = nu . (d^2 p)(e_i, e_j)``, obtained from the parameter-space
    second derivatives by the Gram-Schmidt change of basis.
    """
    w = jet.basis_change
    b_param = jet.d2 @ jet.nu  # (k, k) = nu . p_{,ab}
    h = w @ b_param @ w.T
    h = 0.5 * (h + h.T)
    g = np.eye(h.shape[0])
    return g, h


def shape_derivative(jet: SurfaceJet) -> np.ndarray:
    """Covariant derivative of the shape tensor in the orthonormal frame.

    Computed in parameter coordinates from the order-3 jet,

        D_c b_ab = nu . p_{,abc} - b_c^d (p_{,d} . p_{,ab})
                   - Gamma^d_{ca} b_db - Gamma^d_{cb} b_ad,

    then pushed into the frame.  Flat ambient space makes the result totally
    symmetric; the residual from exact symmetry is a numerical health check.
    """
    j = jet.d1
    w = jet.basis_change
    g = j @ j.T
    ginv = np.linalg.inv(g)
    b = jet.d2 @ jet.nu                       # b_ab
    gam_low = np.einsum("abm,dm->abd", jet.d2, j)   # p_{,ab} . p_{,d}
    gam = np.einsum("ed,abd->abe", ginv, gam_low)    # Gamma^e_ab
    b_mixed = ginv @ b                        # b^d_c indexed [d, c]

    db = np.einsum("abcm,m->abc", jet.d3, jet.nu)
    db -= np.einsum("dc,abd->abc", b_mixed, gam_low)
    nabla = db - np.einsum("cad,db->abc", gam, b) - np.einsum("cbd,ad->abc", gam, b)
    return np.einsum("ia,jb,kc,abc->ijk", w, w, w, nabla)


def gauge_frame(
    jet: SurfaceJet, tolerances: Tolerances | None = None
) -> ConformalFrame:
    """Lift the adapted Euclidean frame into the sphere model.

    Produces ``A_0 = (1, p, |p|^2/2)``, tangent hyperplane lifts
    ``A_i = (0, e_i, p . e_i)``, the tangent-plane lift
    ``A_n = (0, nu, p . nu)`` and the improper point ``(0, ..., 0, 1)``.
    The full Gram matrix is verified against its target before returning.
    """
    tol = tolerances or DEFAULT_TOLERANCES
    n = jet.dim_n
    p = jet.p

    a0 = lift_point(p)
    mids = [np.concatenate(([0.0], e_i, [float(p @ e_i)])) for e_i in jet.e]
    an = np.concatenate(([0.0], jet.nu, [float(p @ jet.nu)]))
    ainf = np.zeros(n + 2)
    ainf[-1] = 1.0

    g = form_matrix(n)
    basis = np.stack([a0.coords, *mids, an, ainf])
    gram = basis @ g @ basis.T
    residual = float(np.max(np.abs(gram - g)))
    if residual > tol.frame_residual * max(1.0, float(p @ p)):
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
