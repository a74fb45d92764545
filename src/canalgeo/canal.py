"""Curvature tensors of hypersurfaces and canal/Dupin detection.

Everything here works in the orthonormal tangent gauge delivered by
``jets.evaluate_jets``: the metric is the identity, the second fundamental
form h plays the role of the first conformal tensor, and a trace-adjusted
cubic tensor built from the covariant derivative of h tests, direction by
direction, whether the hypersurface is enveloped by a sphere family.

The trace-free part a = h - lam*I singles out principal directions; a simple
principal direction i belongs to a sphere family exactly when the cubic
tensor's pure component a_iii vanishes, and a repeated principal curvature
gives a family for free.  When the full cubic tensor vanishes on a surface
in R^3 the surface is a Dupin cyclide.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_TOLERANCES, Tolerances
from .conformal import Dropped, PolyVector, drop_sphere
from .jets import (
    ParametricSurface,
    SurfaceJet,
    _pow2_floor,
    _row_dots,
    evaluate_jets,
    fundamental_forms,
    gauge_frame,
    shape_derivative,
)

__all__ = [
    "ConformalTensors",
    "PrincipalSpectrum",
    "ContactSphere",
    "ClusterVerdict",
    "CanalReport",
    "build_tensors",
    "principal_spectrum",
    "contact_spheres",
    "third_order_in_principal_frame",
    "detect_canal",
]

_A_SINGULAR_REL = 1e-8


@dataclass(frozen=True)
class ConformalTensors:
    """Curvature data of one surface point in the orthonormal gauge.

    ``h`` is the shape operator matrix, ``lam`` its eigenvalue mean, ``a``
    the trace-free part, ``lam3`` the frame components of the covariant
    derivative of h (symmetric in the first two slots, totally symmetric on
    shell), ``lam1`` its normalized trace vector, ``mu`` the solution of
    a mu = lam1, and ``a3`` the trace-adjusted cubic tensor.  ``a3`` is None
    when ``a`` is singular (umbilic points included), in which case the
    cubic test does not apply.

    `_ladder` fills the same fields with a leading point axis; there the
    rows of ``mu`` and ``a3`` are NaN where ``a_singular`` holds.
    """

    jet: SurfaceJet
    h: np.ndarray
    lam: float
    a: np.ndarray
    lam3: np.ndarray
    lam1: np.ndarray
    mu: np.ndarray | None
    a3: np.ndarray | None
    umbilic: bool
    a_singular: bool

    @property
    def dim_n(self) -> int:
        return self.jet.dim_n


def _norms(x: np.ndarray) -> np.ndarray:
    """Frobenius norm of each x[i] of a stack, as ``np.linalg.norm`` of that point alone.

    Each row is divided by s, the largest power of two not above its largest
    |entry|, and the norm multiplied by s, so that the squares neither
    overflow nor underflow; where they would not anyway, the result is
    bit-identical, because scaling by a power of two is exact.
    """
    flat = x.reshape(len(x), -1)
    s = _pow2_floor(np.max(np.abs(flat), axis=1, initial=0.0))
    flat = flat / s[:, None]
    return np.sqrt(_row_dots(flat, flat)) * s


def _ladder(jets: SurfaceJet, tolerances: Tolerances) -> ConformalTensors:
    """The tensor ladder at every point of a jet with a leading point axis.

    Stacked einsums and `eigvalsh`; `solve` runs on the rows where a is not
    singular.
    """
    _, h = fundamental_forms(jets)
    rows, k = h.shape[:2]
    lam = np.trace(h, axis1=1, axis2=2) / k
    eye = np.eye(k)
    a = h - lam[:, None, None] * eye
    lam3 = shape_derivative(jets)
    lam1 = np.einsum("...iik->...k", lam3) / k

    h_norm = _norms(h)
    umbilic = _norms(a) <= tolerances.umbilic * h_norm
    a_eigs = np.linalg.eigvalsh(a)
    a_singular = np.min(np.abs(a_eigs), axis=1) <= _A_SINGULAR_REL * h_norm

    regular = ~a_singular
    mu = np.full((rows, k), np.nan)
    mu[regular] = np.linalg.solve(a[regular], lam1[regular][:, :, None])[:, :, 0]
    a3 = (
        lam3
        + np.einsum("...ij,...k->...ijk", a, mu)
        + np.einsum("...jk,...i->...ijk", a, mu)
        + np.einsum("...ki,...j->...ijk", a, mu)
        - np.einsum("ij,...k->...ijk", eye, lam1)
        - np.einsum("jk,...i->...ijk", eye, lam1)
        - np.einsum("ki,...j->...ijk", eye, lam1)
    )
    return ConformalTensors(
        jet=jets,
        h=h,
        lam=lam,
        a=a,
        lam3=lam3,
        lam1=lam1,
        mu=mu,
        a3=a3,
        umbilic=umbilic,
        a_singular=a_singular,
    )


def build_tensors(jet: SurfaceJet, tolerances: Tolerances = DEFAULT_TOLERANCES) -> ConformalTensors:
    """Run the tensor ladder at one jet: h, its mean, trace-free and cubic parts.

    A batch of one through the stacked ladder.
    """
    t = _ladder(jet.batch(), tolerances)
    singular = bool(t.a_singular[0])
    return ConformalTensors(
        jet=jet,
        h=t.h[0],
        lam=float(t.lam[0]),
        a=t.a[0],
        lam3=t.lam3[0],
        lam1=t.lam1[0],
        mu=None if singular else t.mu[0],
        a3=None if singular else t.a3[0],
        umbilic=bool(t.umbilic[0]),
        a_singular=singular,
    )


@dataclass(frozen=True)
class PrincipalSpectrum:
    """Eigen-decomposition of h with eigenvalues grouped into clusters."""

    eigenvalues: np.ndarray
    vectors: np.ndarray  # columns are frame-component eigenvectors
    clusters: tuple  # tuple of index tuples, ascending eigenvalue order
    cluster_means: tuple

    @property
    def signature(self) -> tuple:
        return tuple(len(c) for c in self.clusters)


def _spectra(h: np.ndarray, tolerances: Tolerances):
    """Stacked `eigh` of h (P, k, k), and where each row's sorted eigenvalues split into clusters.

    ``breaks[i, j]`` holds when eigenvalues j and j + 1 of row i lie in
    different clusters.
    """
    eigs, vecs = np.linalg.eigh(h)
    scale = np.max(np.abs(eigs), axis=1)
    breaks = np.diff(eigs, axis=1) > (tolerances.clustering * scale)[:, None]
    return eigs, vecs, breaks


def _clusters(breaks: np.ndarray) -> tuple:
    """Index tuples of the clusters that one row of ``breaks`` separates."""
    edges = [0, *(np.flatnonzero(breaks) + 1).tolist(), breaks.size + 1]
    return tuple(tuple(range(lo, hi)) for lo, hi in zip(edges, edges[1:]))


def principal_spectrum(
    tensors: ConformalTensors, tolerances: Tolerances = DEFAULT_TOLERANCES
) -> PrincipalSpectrum:
    eigs, vecs, breaks = _spectra(tensors.h[None], tolerances)
    eigs = eigs[0]
    clusters = _clusters(breaks[0])
    means = tuple(float(np.mean(eigs[list(c)])) for c in clusters)
    return PrincipalSpectrum(
        eigenvalues=eigs, vectors=vecs[0], clusters=clusters, cluster_means=means
    )


@dataclass(frozen=True)
class ContactSphere:
    """Curvature sphere attached to one principal cluster.

    ``vector`` is the unit-quadric combination A_n + s A_0 of the gauge
    frame; ``sphere`` its drop back to Euclidean data; ``directions`` the
    ambient principal directions of the cluster, one row each.
    """

    curvature: float
    multiplicity: int
    vector: PolyVector
    sphere: Dropped
    directions: np.ndarray


def contact_spheres(
    jet: SurfaceJet,
    tensors: ConformalTensors | None = None,
    spectrum: PrincipalSpectrum | None = None,
    tolerances: Tolerances = DEFAULT_TOLERANCES,
) -> tuple:
    """Curvature spheres of all principal clusters at one point."""
    if tensors is None:
        tensors = build_tensors(jet, tolerances)
    if spectrum is None:
        spectrum = principal_spectrum(tensors, tolerances)
    frame = gauge_frame(jet, tolerances)
    out = []
    for cluster, s in zip(spectrum.clusters, spectrum.cluster_means):
        vec = frame.an.coords + s * frame.a0.coords
        pv = PolyVector(vec)
        dirs = spectrum.vectors[:, list(cluster)].T @ jet.e
        out.append(
            ContactSphere(
                curvature=s,
                multiplicity=len(cluster),
                vector=pv,
                sphere=drop_sphere(pv, tolerances),
                directions=dirs,
            )
        )
    return tuple(out)


def third_order_in_principal_frame(
    tensors: ConformalTensors, spectrum: PrincipalSpectrum | None = None
) -> np.ndarray | None:
    """Rotate the cubic tensor into the eigenbasis of h; None when unavailable."""
    if tensors.a3 is None:
        return None
    if spectrum is None:
        spectrum = principal_spectrum(tensors)
    return _rotate3(tensors.a3, spectrum.vectors)


def _rotate3(a3: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Cubic tensors (..., k, k, k) in the eigenbases given by the columns of r (..., k, k)."""
    return np.einsum("...abc,...ai,...bj,...ck->...ijk", a3, r, r, r)


# ---------------------------------------------------------------------------
# surface-level detection


@dataclass(frozen=True)
class ClusterVerdict:
    multiplicity: int
    curvature: float
    canal: bool | None
    mechanism: str  # multiplicity | third-order | unavailable
    metric: float | None

    def to_json(self) -> dict:
        return {
            "multiplicity": self.multiplicity,
            "curvature": self.curvature,
            "canal": self.canal,
            "mechanism": self.mechanism,
            "metric": self.metric,
        }


@dataclass(frozen=True)
class CanalReport:
    name: str
    dim_n: int
    params: np.ndarray
    signature: tuple | None
    signature_fraction: float
    clusters: tuple
    is_canal: bool
    canal_directions: int
    dupin: bool | None
    dupin_metric: float | None
    totally_umbilic: bool
    umbilic_fraction: float
    warnings: tuple

    def to_json(self) -> dict:
        return {
            "surface": self.name,
            "n": self.dim_n,
            "samples": int(self.params.shape[0]),
            "signature": list(self.signature) if self.signature else None,
            "signature_fraction": self.signature_fraction,
            "clusters": [c.to_json() for c in self.clusters],
            "is_canal": self.is_canal,
            "canal_directions": self.canal_directions,
            "dupin": self.dupin,
            "dupin_metric": self.dupin_metric,
            "totally_umbilic": self.totally_umbilic,
            "umbilic_fraction": self.umbilic_fraction,
            "warnings": list(self.warnings),
        }


def _dupin_metrics(tensors: ConformalTensors) -> np.ndarray:
    """Dupin metric of every point of a stacked ladder; NaN where it does not apply."""
    # Both lam3 and h^2 carry the units of a3, so the ratio is scale-free and the
    # denominator stays a genuine scale where the cubic ladder degenerates to zero; it is 0
    # only where h and lam3 are, as on a plane, whose metric is 0.  Every term is divided
    # by s^2, s the largest power of two not above |h|, so that |h|^2 neither overflows
    # nor underflows; the scaling is exact.
    h_norm = _norms(tensors.h)
    s = _pow2_floor(h_norm)
    lam3_norm = _norms(tensors.lam3) / s / s
    # Totally umbilic pieces are Dupin exactly when h stays parallel.
    fallback = np.where(tensors.umbilic, lam3_norm, np.nan)
    top = np.where(tensors.a_singular, fallback, _norms(tensors.a3) / s / s)
    scale = lam3_norm + (h_norm / s) ** 2
    return np.divide(top, scale, out=np.zeros_like(top), where=scale > 0)


def detect_canal(
    surface: ParametricSurface,
    counts=6,
    params: np.ndarray | None = None,
    tolerances: Tolerances = DEFAULT_TOLERANCES,
) -> CanalReport:
    """Sample a surface and decide which principal directions admit envelopes.

    The verdict per cluster: a repeated principal curvature is a sphere
    direction outright; a simple one qualifies when the pure cubic component
    along it vanishes within ``tolerances.canal`` (after normalization).
    Mixed eigenvalue signatures across samples are reported as warnings, not
    errors, since clustering strata can genuinely change along a surface.

    The grid is ``counts`` cells per axis of the domain box, or the rows of
    ``params`` (at least one, all finite).  Jets, the tensor ladder and the
    spectra are each one batched pass over the whole grid.
    """
    pts = surface.sample_grid(counts) if params is None else params
    jets = evaluate_jets(surface, pts)
    pts = jets.u
    tensors = _ladder(jets, tolerances)
    dupin_vals = _dupin_metrics(tensors)

    total = pts.shape[0]
    kept = np.flatnonzero(~tensors.umbilic)  # umbilic samples are skipped
    umbilic_count = total - kept.size
    eigs, vecs, breaks = _spectra(tensors.h[kept], tolerances)
    # count signatures in order of first appearance (a break pattern determines its own)
    row_signatures = [tuple(len(c) for c in _clusters(b)) for b in breaks]
    signatures = Counter(row_signatures)

    warnings = []
    umbilic_fraction = umbilic_count / total
    totally_umbilic = umbilic_count == total

    signature = None
    signature_fraction = 0.0
    clusters: tuple = ()
    canal_directions = 0
    if totally_umbilic:
        is_canal = True
        warnings.append("surface is totally umbilic; sphere/plane degenerate case")
    else:
        signature = max(signatures, key=signatures.get)
        signature_fraction = signatures[signature] / kept.size
        if signature_fraction < 1.0:
            warnings.append(
                "principal multiplicities change across samples "
                f"({dict((str(k), v) for k, v in signatures.items())}); "
                "verdicts use the majority stratum"
            )
        matching = np.array([sig == signature for sig in row_signatures])
        rows = kept[matching]
        eig_m = eigs[matching]
        a3p = None
        if not tensors.a_singular[rows].any():
            a3p = _rotate3(tensors.a3[rows], vecs[matching])
            a_norm = _norms(tensors.a[rows])  # divide by it twice: ||a||^2 may overflow
        elif 1 in signature:
            warnings.append("cubic tensor unavailable at some samples (singular trace-free part)")
        verdicts = []
        for mult, cluster in zip(signature, _clusters(breaks[matching][0])):
            curvature = float(np.mean(eig_m[:, list(cluster)].mean(axis=1)))
            if mult > 1:
                verdicts.append(ClusterVerdict(mult, curvature, True, "multiplicity", None))
                continue
            if a3p is None:
                verdicts.append(ClusterVerdict(mult, curvature, None, "unavailable", None))
                continue
            idx = cluster[0]
            metric = float(np.max(np.abs(a3p[:, idx, idx, idx]) / a_norm / a_norm))
            verdicts.append(
                ClusterVerdict(mult, curvature, metric < tolerances.canal, "third-order", metric)
            )
        clusters = tuple(verdicts)
        canal_directions = sum(1 for v in verdicts if v.canal)
        is_canal = canal_directions > 0

    if 0 < umbilic_count < total:
        warnings.append(f"{umbilic_count}/{total} samples are umbilic and were skipped")

    dupin = None
    dupin_metric = None
    available = ~np.isnan(dupin_vals)
    if available.any():
        dupin_metric = float(np.max(dupin_vals[available]))
    if surface.dim_n == 3 and available.all():
        dupin = dupin_metric < tolerances.dupin

    return CanalReport(
        name=surface.name,
        dim_n=surface.dim_n,
        params=pts,
        signature=signature,
        signature_fraction=signature_fraction,
        clusters=clusters,
        is_canal=is_canal,
        canal_directions=canal_directions,
        dupin=dupin,
        dupin_metric=dupin_metric,
        totally_umbilic=totally_umbilic,
        umbilic_fraction=umbilic_fraction,
        warnings=tuple(warnings),
    )
