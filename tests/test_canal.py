"""Curvature ladder, principal clusters, contact spheres, canal detection."""

import math
import warnings

import numpy as np
import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from canalgeo import (
    build_tensors,
    contact_spheres,
    ImmersionError,
    ParametricSurface,
    detect_canal,
    evaluate_jet,
    make_surface,
    planar_canal_surface,
    principal_spectrum,
    surface_from_expressions,
    third_order_in_principal_frame,
    transform_surface,
)
from canalgeo.taylor import cos, jet_function, sin


@pytest.fixture(scope="module")
def torus():
    return make_surface("torus", {"major": 2.0, "minor": 1.0})


def test_torus_ladder_values(torus):
    tens = build_tensors(evaluate_jet(torus, np.array([0.0, 0.0])))
    sign = float(tens.jet.nu[0])
    assert np.allclose(tens.h, sign * np.diag([-1.0 / 3.0, -1.0]), atol=1e-12)
    assert tens.lam == pytest.approx(sign * (-2.0 / 3.0), abs=1e-12)
    assert np.allclose(tens.a, sign * np.diag([1.0 / 3.0, -1.0 / 3.0]), atol=1e-12)
    assert not tens.umbilic
    assert tens.a3 is not None
    assert np.abs(tens.a3).max() < 1e-12


def test_traces_vanish(torus):
    rng = np.random.default_rng(6)
    for _ in range(20):
        u = rng.random(2) * 2 * np.pi
        tens = build_tensors(evaluate_jet(torus, u))
        assert abs(np.trace(tens.a)) < 1e-12
        if tens.a3 is not None:
            assert np.abs(np.einsum("iik->k", tens.a3)).max() < 1e-10


def test_ellipsoid_cubic_trace_free():
    surf = make_surface("ellipsoid", {"a": 3.0, "b": 2.0, "c": 1.0})
    lo = np.array([d[0] for d in surf.domain])
    hi = np.array([d[1] for d in surf.domain])
    rng = np.random.default_rng(7)
    for _ in range(15):
        u = lo + rng.random(2) * (hi - lo)
        tens = build_tensors(evaluate_jet(surf, u))
        if tens.a3 is None:
            continue
        assert np.abs(np.einsum("iik->k", tens.a3)).max() < 1e-9
        # and the cubic really is nonzero off the symmetry set
        assert np.abs(tens.a3).max() > 1e-4


def test_sphere_is_totally_umbilic():
    surf = make_surface("sphere", {"radius": 2.0})
    tens = build_tensors(evaluate_jet(surf, np.array([1.0, 1.2])))
    assert tens.umbilic
    assert tens.a3 is None
    spec = principal_spectrum(tens)
    assert spec.signature == (2,)
    (cs,) = contact_spheres(tens.jet, tens, spec)
    assert cs.multiplicity == 2
    assert cs.sphere.kind == "sphere"
    assert np.allclose(cs.sphere.center, 0.0, atol=1e-10)
    assert cs.sphere.radius == pytest.approx(2.0, abs=1e-10)


def test_torus_contact_spheres(torus):
    jet = evaluate_jet(torus, np.array([0.0, 0.0]))
    tens = build_tensors(jet)
    spec = principal_spectrum(tens)
    spheres = contact_spheres(jet, tens, spec)
    assert len(spheres) == 2
    got = sorted(
        ((cs.sphere.radius, tuple(np.round(cs.sphere.center, 10))) for cs in spheres)
    )
    assert got[0][0] == pytest.approx(1.0, abs=1e-10)
    assert got[0][1] == pytest.approx((2.0, 0.0, 0.0), abs=1e-10)
    assert got[1][0] == pytest.approx(3.0, abs=1e-10)
    assert got[1][1] == pytest.approx((0.0, 0.0, 0.0), abs=1e-10)


def test_contact_sphere_vectors_are_unit(torus):
    rng = np.random.default_rng(13)
    for _ in range(10):
        u = rng.random(2) * 2 * np.pi
        jet = evaluate_jet(torus, u)
        tens = build_tensors(jet)
        spec = principal_spectrum(tens)
        for cs in contact_spheres(jet, tens, spec):
            assert cs.vector.norm2() == pytest.approx(1.0, abs=1e-9)
            # tangency: the lifted surface point lies on the curvature sphere
            from canalgeo import lift_point, scalar_product

            assert scalar_product(cs.vector, lift_point(jet.p)) == pytest.approx(
                0.0, abs=1e-9
            )


def test_principal_spectrum_orthonormality(torus):
    tens = build_tensors(evaluate_jet(torus, np.array([0.7, 2.1])))
    spec = principal_spectrum(tens)
    v = spec.vectors
    assert np.allclose(v.T @ v, np.eye(v.shape[1]), atol=1e-12)
    assert np.all(np.diff(spec.eigenvalues) >= -1e-14)


def test_third_order_rotation_consistency(torus):
    tens = build_tensors(evaluate_jet(torus, np.array([1.1, 0.6])))
    spec = principal_spectrum(tens)
    T = third_order_in_principal_frame(tens, spec)
    assert np.allclose(T, np.transpose(T, (1, 0, 2)), atol=1e-12)
    assert np.allclose(T, np.transpose(T, (0, 2, 1)), atol=1e-12)
    assert np.linalg.norm(T.ravel()) == pytest.approx(
        np.linalg.norm(tens.a3.ravel()), abs=1e-12
    )


def test_detect_canal_torus(torus):
    rep = detect_canal(torus, counts=(10, 10))
    assert rep.signature == (1, 1)
    assert rep.is_canal
    assert rep.dupin is True
    assert rep.dupin_metric < 1e-9
    assert rep.canal_directions == 2
    assert not rep.totally_umbilic


def test_detect_canal_cylinder():
    rep = detect_canal(make_surface("cylinder", {"radius": 1.0}), counts=(10, 10))
    assert rep.is_canal
    assert rep.dupin is True


def test_detect_canal_ellipsoid_negative():
    rep = detect_canal(make_surface("ellipsoid", {"a": 3.0, "b": 2.0, "c": 1.0}), counts=(12, 12))
    assert rep.signature == (1, 1)
    assert not rep.is_canal
    assert rep.dupin is False
    for cl in rep.clusters:
        assert cl.canal is False
        assert cl.mechanism == "third-order"


def test_detect_canal_sphere_umbilic():
    rep = detect_canal(make_surface("sphere", {"radius": 1.5}), counts=(8, 8))
    assert rep.totally_umbilic
    assert rep.is_canal
    assert rep.dupin is True
    assert rep.umbilic_fraction == pytest.approx(1.0)


def test_overflowed_third_order_raises_immersion_error():
    # radius 1e-300: the metric inverts once each row is rescaled, but the
    # derivative of h (about 1e-16 / radius^2 of rounding) leaves float64
    tiny = make_surface("sphere", {"radius": 1e-300})
    with pytest.raises(ImmersionError, match=r"overflows floating point at u=\[0\.5, -0\.4\]"):
        detect_canal(tiny, params=[[0.5, -0.4], [1.0, 0.3]])
    with pytest.raises(ImmersionError, match="third-order data overflows"):
        detect_canal(tiny, counts=3)
    # lam3 scales as 1/length^2: an ellipsoid at 1e-160 passes the range before its metric does
    with pytest.raises(ImmersionError, match=r"overflows floating point at u=\[1\.047"):
        detect_canal(_scaled_ellipsoid(1e-160), counts=3)
    # a small metric that still inverts keeps its verdict
    assert detect_canal(make_surface("sphere", {"radius": 1e-150}), counts=3).is_canal


def test_huge_chart_keeps_its_dupin_verdict():
    # radius 1e300: g = d1 d1^T, about 1e600, would overflow unless each row is rescaled
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert detect_canal(make_surface("sphere", {"radius": 1e300}), counts=3).dupin is True


@pytest.mark.parametrize("radius", [1e-90, 1e-120, 1e-150, 1e-161])
def test_tiny_chart_keeps_its_dupin_verdict(radius):
    # |lam3|^2 (about 1e-32 / radius^4) and |h|^2 (1 / radius^2) would
    # overflow unless the norms and the Dupin metric are rescaled
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert detect_canal(make_surface("sphere", {"radius": radius}), counts=3).dupin is True


def test_detect_canal_tube4_multiplicity():
    rep = detect_canal(make_surface("tube4", {"major": 2.0, "minor": 0.5}), counts=(6, 6, 6))
    assert rep.signature == (1, 2)
    assert rep.is_canal
    mult2 = [c for c in rep.clusters if c.multiplicity == 2]
    assert len(mult2) == 1
    assert mult2[0].canal and mult2[0].mechanism == "multiplicity"
    # n = 4: the Dupin grade is only defined for surfaces in R^3
    assert rep.dupin is None


def test_canal_criterion_on_exact_envelope():
    t = sp.symbols("t", real=True)
    surf, _ = planar_canal_surface(
        2 * sp.cos(t),
        2 * sp.sin(t),
        sp.Rational(1, 2) + sp.Rational(1, 8) * sp.sin(2 * t),
        t_sym=t,
        dim_n=3,
        t_domain=(0.0, 2 * np.pi),
        name="wavy",
    )
    rep = detect_canal(surf, counts=(10, 10))
    assert rep.is_canal
    assert rep.canal_directions >= 1
    canal_clusters = [c for c in rep.clusters if c.canal]
    assert canal_clusters and min(c.metric for c in canal_clusters) < 1e-8


def test_perturbed_envelope_fails_detection():
    t, th = sp.symbols("t th", real=True)
    surf, _ = planar_canal_surface(
        2 * sp.cos(t),
        2 * sp.sin(t),
        sp.Rational(1, 2),
        t_sym=t,
        dim_n=3,
        t_domain=(0.0, 2 * np.pi),
        perturbation=sp.Rational(1, 20) * sp.sin(3 * t) * sp.cos(2 * th),
        name="dented",
    )
    rep = detect_canal(surf, counts=(10, 10))
    assert not rep.is_canal


# ---------------------------------------------------------------------------
# the warnings of detect_canal


def _graph4(height):
    x1, x2, x3 = sp.symbols("x1 x2 x3", real=True)
    return surface_from_expressions(
        [x1, x2, x3], [x1, x2, x3, height(x1, x2, x3)], domain=[[-1.0, 1.0]] * 3
    )


def test_an_unavailable_cubic_tensor_is_warned_once():
    # the trace-free part of h is singular at some samples (at the origin h = diag(1, 0, -1)),
    # so none of the three simple clusters has a cubic metric; the warning is given once
    report = detect_canal(_graph4(lambda x1, x2, x3: (x1**2 - x3**2) / 2), counts=3)
    assert report.signature == (1, 1, 1)
    assert [c.mechanism for c in report.clusters] == ["unavailable"] * 3
    assert report.warnings == (
        "cubic tensor unavailable at some samples (singular trace-free part)",
    )


def test_changing_multiplicities_are_warned():
    report = detect_canal(_graph4(lambda x1, x2, x3: (x1**2 + x2**2 + x3**2 / 4) / 2), counts=3)
    assert report.signature == (1, 1, 1)
    assert report.signature_fraction == 24 / 27
    (warning,) = report.warnings
    assert warning.startswith("principal multiplicities change across samples")


def test_umbilic_samples_are_counted_in_a_warning():
    u, v = sp.symbols("u v", real=True)
    paraboloid = surface_from_expressions([u, v], [u, v, u**2 + v**2], domain=[[-1.0, 1.0]] * 2)
    report = detect_canal(paraboloid, counts=3)
    assert report.umbilic_fraction == 1 / 9
    assert report.warnings == ("1/9 samples are umbilic and were skipped",)


# ---------------------------------------------------------------------------
# verdicts in the surface's own scale: similarities and inversions


def _scaled_ellipsoid(k):
    return transform_surface(make_surface("ellipsoid", {}), ambient_rot=k * np.eye(3))


@pytest.fixture(scope="module")
def unit_ellipsoid_report():
    return detect_canal(_scaled_ellipsoid(1.0), counts=3)


@pytest.mark.parametrize("k", [1e-150, 1e-100, 1e-10, 0.01, 1.0, 100.0, 1e6, 1e10, 1e100, 1e150])
def test_ellipsoid_verdicts_do_not_depend_on_scale(k, unit_ellipsoid_report):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        report = detect_canal(_scaled_ellipsoid(k), counts=3)
    assert report.signature == (1, 1)
    assert report.canal_directions == 0 and not report.is_canal
    assert report.dupin is False
    assert report.dupin_metric == pytest.approx(1.3216, abs=5e-5)
    metrics = [c.metric for c in report.clusters]
    want = [c.metric for c in unit_ellipsoid_report.clusters]
    assert metrics == pytest.approx(want, rel=1e-9)


def _cyclide(u, v, a=2.0, b=math.sqrt(3.0), mu=1.9):
    """The ring Dupin cyclide (a, b, mu) with c^2 = a^2 - b^2, over the Taylor namespace."""
    c = math.sqrt(a * a - b * b)
    cu, cv = cos(u), cos(v)
    d = a - c * cu * cv
    return [
        (mu * (c - a * cu * cv) + b * b * cu) / d,
        b * sin(u) * (a - mu * cv) / d,
        b * sin(v) * (c * cu - mu) / d,
    ]


def _taylor_surface(fn, domain):
    return ParametricSurface(3, chart=None, jet=jet_function(fn, 3), domain=domain)


@pytest.mark.parametrize("k", [1e-10, 1e-5, 1.0, 1e6, 1e10])
def test_dupin_cyclide_is_dupin_at_every_scale(k):
    cyclide = _taylor_surface(_cyclide, [[0.0, 2 * math.pi]] * 2)
    report = detect_canal(transform_surface(cyclide, ambient_rot=k * np.eye(3)), counts=5)
    assert report.signature == (1, 1)
    assert report.canal_directions == 2
    assert report.dupin is True


def _inverted(fn, centre, r2):
    """fn composed with the inversion x -> centre + r2 (x - centre) / |x - centre|^2."""

    def chart(u, v):
        d = [x - c for x, c in zip(fn(u, v), centre)]
        q = d[0] * d[0] + d[1] * d[1] + d[2] * d[2]
        return [c + r2 * x / q for x, c in zip(d, centre)]

    return chart


def _ellipsoid(u, v):
    return [3.0 * cos(v) * cos(u), 2.0 * cos(v) * sin(u), sin(v)]


def _torus(u, v):
    ring = cos(v) + 2.0
    return [ring * cos(u), ring * sin(u), sin(v)]


_INVERSIONS = [((0.5, 0.3, 4.0), 1.0), ((4.0, 1.0, 0.5), 9.0), ((0.0, 0.0, 1.5), 1e4)]


@pytest.mark.parametrize("centre, r2", _INVERSIONS)
def test_inversions_keep_the_surface_verdicts(centre, r2):
    ellipsoid = _taylor_surface(_inverted(_ellipsoid, centre, r2), [[0.0, 2 * math.pi], [-1.2, 1.2]])
    report = detect_canal(ellipsoid, counts=3)
    assert report.signature == (1, 1) and not report.is_canal
    torus = _taylor_surface(_inverted(_torus, centre, r2), [[0.0, 2 * math.pi]] * 2)
    report = detect_canal(torus, counts=5)
    assert report.canal_directions == 2
    assert max(c.metric for c in report.clusters) <= 1e-13


def _random_rotation(seed, n):
    """A seeded rotation of R^n.  A reflection would flip the unit normal, and with it the
    sign of h and the ascending order of the clusters (a signature (1, 2) reads (2, 1))."""
    q, r = np.linalg.qr(np.random.default_rng(seed).normal(size=(n, n)))
    q = q * np.sign(np.diag(r))
    q[:, 0] *= np.linalg.det(q)
    return q


@settings(max_examples=100, deadline=None)
@given(
    name=st.sampled_from(["torus", "cylinder", "ellipsoid", "tube4"]),
    exponent=st.floats(-100.0, 100.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_surface_verdicts_are_similarity_invariant(name, exponent, seed):
    source = make_surface(name)
    n = source.dim_n
    k = 10.0**exponent
    shift = k * np.random.default_rng(seed).normal(scale=10.0, size=n)
    moved = transform_surface(
        source, ambient_rot=k * _random_rotation(seed, n), ambient_shift=shift
    )
    base, report = detect_canal(source, counts=4), detect_canal(moved, counts=4)
    for field in ("is_canal", "canal_directions", "signature", "dupin", "umbilic_fraction"):
        assert getattr(report, field) == getattr(base, field), field
    for got, want in zip(report.clusters, base.clusters):
        if want.canal is False:
            assert got.metric == pytest.approx(want.metric, rel=1e-9)
    if base.dupin is False:
        assert report.dupin_metric == pytest.approx(base.dupin_metric, rel=1e-9)
