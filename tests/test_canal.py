"""Curvature ladder, principal clusters, contact spheres, canal detection."""

import warnings

import numpy as np
import pytest
import sympy as sp

from canalgeo import (
    build_tensors,
    contact_spheres,
    ImmersionError,
    detect_canal,
    evaluate_jet,
    make_surface,
    planar_canal_surface,
    principal_spectrum,
    surface_from_expressions,
    third_order_in_principal_frame,
)


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


def test_underflowed_metric_raises_immersion_error():
    # radius 1e-300: the first fundamental form, about 1e-600, underflows to zero
    tiny = make_surface("sphere", {"radius": 1e-300})
    with pytest.raises(ImmersionError, match=r"singular at u=\[0\.5, -0\.4\]"):
        detect_canal(tiny, params=[[0.5, -0.4], [1.0, 0.3]])
    with pytest.raises(ImmersionError, match="first fundamental form is singular"):
        detect_canal(tiny, counts=3)
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
