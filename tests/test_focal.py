"""Adapted frames, focal determinants, singular points, and plane classes."""

import math

import numpy as np
import pytest
import scipy.linalg as sla

from canalgeo import (
    adapted_frame_coefficients,
    classify_tube_plane,
    constraint_residual,
    focal_determinant,
    make_family,
    rank_drop_singular_points,
    singular_set,
)
from canalgeo.conformal import form_matrix
from canalgeo.errors import DimensionMismatch, DomainError
from canalgeo.focal import FocalCoefficients


def _tube(major, rho):
    return make_family("circle-tube", {"major": major, "rho": rho})


# ---------------------------------------------------------------------------
# singular points of circular-spine tubes: the three discriminant regimes


def test_selfintersecting_tube_two_singular_points():
    fam = _tube(1.0, 2.0)
    expected = np.sqrt(3.0)
    for t0 in (0.3, 2.1):
        rep = singular_set(adapted_frame_coefficients(fam, t0))
        assert rep.count == 2
        assert not rep.degenerate
        assert rep.discriminant == pytest.approx(0.75, abs=1e-12)
        zs = sorted(p.point[2] for p in rep.points)
        assert zs[0] == pytest.approx(-expected, abs=1e-12)
        assert zs[1] == pytest.approx(expected, abs=1e-12)
        for p in rep.points:
            assert np.linalg.norm(p.point[:2]) < 1e-12


def test_tangent_tube_one_double_point_at_origin():
    fam = _tube(1.0, 1.0)
    for t0 in (0.3, 2.1):
        rep = singular_set(adapted_frame_coefficients(fam, t0))
        assert rep.count == 1
        assert rep.degenerate
        assert abs(rep.discriminant) <= rep.band
        assert np.linalg.norm(rep.points[0].point) < 1e-12


def test_embedded_tube_no_singular_points():
    fam = _tube(2.0, 0.5)
    for t0 in (0.3, 2.1):
        rep = singular_set(adapted_frame_coefficients(fam, t0))
        assert rep.count == 0
        assert not rep.degenerate
        assert rep.discriminant == pytest.approx(-3.75, abs=1e-12)


def test_helix_tube_singular_points_closed_form():
    # constant-radius tube about a helix of curvature kappa: the envelope is
    # singular where 1 - kappa rho cos(theta) = 0 on the normal circle, i.e.
    # at c + N / kappa +- sqrt(rho^2 - kappa^-2) B
    major, pitch, rho = 2.0, 0.5, 3.0
    fam = make_family("helix-tube", {"major": major, "pitch": pitch, "rho": rho})
    speed = math.hypot(major, pitch)
    kappa = major / speed**2
    half = math.sqrt(rho**2 - kappa**-2)
    for t0 in (0.3, 1.7, 2.9, 4.4, 5.8):
        c = np.array([major * math.cos(t0), major * math.sin(t0), pitch * t0])
        normal = np.array([-math.cos(t0), -math.sin(t0), 0.0])
        binormal = np.array([pitch * math.sin(t0), -pitch * math.cos(t0), major]) / speed
        rep = singular_set(adapted_frame_coefficients(fam, t0))
        assert rep.count == 2
        got = sorted((p.point for p in rep.points), key=lambda p: float(p @ binormal))
        for p, sign in zip(got, (-1.0, 1.0)):
            want = c + normal / kappa + sign * half * binormal
            assert np.max(np.abs(p - want)) <= 1e-12


def test_structure_coefficients_golden_values():
    cases = {
        (1.0, 2.0): (-0.5, 1.0, 0.125),
        (1.0, 1.0): (-1.0, 1.0, 0.5),
        (2.0, 0.5): (-2.0, 0.5, 2.0),
    }
    for (major, rho), (lam22, abs_lam212, c22) in cases.items():
        co = adapted_frame_coefficients(_tube(major, rho), 0.3)
        assert co.lam22 == pytest.approx(lam22, abs=1e-12)
        assert abs(co.lam212) == pytest.approx(abs_lam212, abs=1e-12)
        assert co.c22 == pytest.approx(c22, abs=1e-12)
        # r = 1 coefficients always satisfy the symmetry constraint exactly
        assert co.constraint_residual() == 0.0


def test_singular_points_satisfy_isotropy_and_focal_plane():
    co = adapted_frame_coefficients(_tube(1.0, 2.0), 1.7)
    rep = singular_set(co)
    assert rep.count == 2
    for p in rep.points:
        x0, x1, x4 = p.generator
        assert x1 * x1 - 2.0 * x0 * x4 == pytest.approx(0.0, abs=1e-9)
        assert x0 + co.lam212 * x1 + co.c22 * x4 == pytest.approx(0.0, abs=1e-9)
        # the point really sits on the characteristic circle
        fr = co.frame
        assert np.linalg.norm(p.point - fr.center) == pytest.approx(fr.radius, abs=1e-9)


def test_cone_family_circles_are_regular():
    fam = make_family("line-cone", {"slope": 0.5})
    rep = singular_set(adapted_frame_coefficients(fam, 1.0))
    assert rep.count == 0
    assert rep.discriminant < 0


def test_adapted_frame_requires_r1_in_r3():
    fam = make_family("r4-circle", {"major": 2.0, "rho": 0.5})
    with pytest.raises(DomainError):
        adapted_frame_coefficients(fam, 0.3)
    with pytest.raises(DomainError):
        rank_drop_singular_points(fam, 0.3)


# ---------------------------------------------------------------------------
# agreement with the definitional rank-drop oracle


def test_fast_path_matches_rank_drop_oracle():
    for major, rho, want in [(1.0, 2.0, 2), (2.0, 0.5, 0)]:
        fam = _tube(major, rho)
        for t0 in (0.3, 2.1):
            rep = singular_set(adapted_frame_coefficients(fam, t0))
            oracle = rank_drop_singular_points(fam, t0)
            assert rep.count == oracle.count == want
            if want:
                fast = np.array([p.point for p in rep.points])
                slow = np.asarray(oracle.points)
                # match points pairwise regardless of ordering
                for row in fast:
                    dists = np.linalg.norm(slow - row, axis=1)
                    assert dists.min() < 1e-6


# ---------------------------------------------------------------------------
# determinant evaluator


def test_focal_determinant_identity_coefficients():
    for r in (1, 2, 3):
        co = FocalCoefficients(
            r=r,
            lam_pq=np.eye(r),
            lam_apq=np.zeros((1, r, r)),
            c_pq=np.zeros((r, r)),
        )
        for x0 in (0.7, -1.3, 2.0):
            val = focal_determinant(co, np.array([x0, 0.4, -0.9]))
            assert val == pytest.approx(x0**r, rel=1e-12)


def test_focal_determinant_r1_closed_form():
    rng = np.random.default_rng(11)
    for _ in range(20):
        lam, c = rng.standard_normal(2)
        co = FocalCoefficients(
            r=1, lam_pq=np.array([[1.0]]), lam_apq=np.array([[[lam]]]), c_pq=np.array([[c]])
        )
        x = rng.standard_normal(3)
        want = x[0] + lam * x[1] + c * x[2]
        assert focal_determinant(co, x) == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_focal_determinant_diagonal_factors():
    alpha, beta = 0.7, -1.1
    gamma, delta = 0.3, 2.0
    co = FocalCoefficients(
        r=2,
        lam_pq=np.eye(2),
        lam_apq=np.diag([alpha, beta])[None, :, :],
        c_pq=np.diag([gamma, delta]),
    )
    rng = np.random.default_rng(5)
    for _ in range(10):
        x = rng.standard_normal(3)
        want = (x[0] + alpha * x[1] + gamma * x[2]) * (x[0] + beta * x[1] + delta * x[2])
        assert focal_determinant(co, x) == pytest.approx(want, rel=1e-10, abs=1e-12)


def test_focal_determinant_homogeneous_of_degree_r():
    rng = np.random.default_rng(23)
    for r in (1, 2, 3):
        for m in (1, 2):
            co = FocalCoefficients(
                r=r,
                lam_pq=np.eye(r) + 0.1 * rng.standard_normal((r, r)),
                lam_apq=rng.standard_normal((m, r, r)),
                c_pq=rng.standard_normal((r, r)),
            )
            x = rng.standard_normal(m + 2)
            for s in (0.5, -2.0):
                assert focal_determinant(co, s * x) == pytest.approx(
                    s**r * focal_determinant(co, x), rel=1e-10, abs=1e-12
                )


def test_focal_determinant_degree_along_lines():
    # restricted to any affine line the determinant is a polynomial of
    # degree exactly r: its (r+1)-st finite difference vanishes while the
    # r-th does not
    rng = np.random.default_rng(31)
    for r in (1, 2, 3):
        co = FocalCoefficients(
            r=r,
            lam_pq=np.eye(r),
            lam_apq=rng.standard_normal((2, r, r)),
            c_pq=rng.standard_normal((r, r)),
        )
        x = rng.standard_normal(4)
        y = rng.standard_normal(4)
        vals = np.array([focal_determinant(co, x + k * y) for k in range(r + 2)])
        diff = vals.copy()
        for _ in range(r):
            diff = np.diff(diff)
        scale = np.abs(vals).max() + 1.0
        assert abs(diff[0]) > 1e-8 * scale
        assert abs(np.diff(diff)[0]) < 1e-8 * scale


def test_focal_determinant_shape_checks():
    co = FocalCoefficients(
        r=1, lam_pq=np.array([[1.0]]), lam_apq=np.zeros((2, 1, 1)), c_pq=np.array([[0.0]])
    )
    with pytest.raises(DimensionMismatch):
        focal_determinant(co, np.zeros(3))  # m = 2 needs 4 coordinates
    with pytest.raises(DimensionMismatch):
        FocalCoefficients(
            r=2, lam_pq=np.eye(2), lam_apq=np.zeros((1, 3, 3)), c_pq=np.zeros((2, 2))
        )


def test_constraint_residual_detects_asymmetry():
    lam = np.array([[1.0, 0.0], [0.0, 2.0]])
    c_sym = np.array([[0.5, 1.0], [0.5, 3.0]])  # lam @ c_sym symmetric
    assert constraint_residual(lam, c_sym) == pytest.approx(0.0, abs=1e-15)
    c_bad = np.array([[0.5, 1.0], [0.7, 3.0]])
    assert constraint_residual(lam, c_bad) > 0.1


# ---------------------------------------------------------------------------
# plane classification


def test_worked_plane_spans():
    e = np.eye(5)
    pc = classify_tube_plane([e[1], e[2], e[3]])
    assert pc.kind == "selfintersecting_tube"
    assert pc.inertia == (3, 0, 0)
    assert pc.tangent_point is None

    pc = classify_tube_plane([e[0], e[4], e[1]])
    assert pc.kind == "smooth_tube"
    assert pc.inertia == (2, 1, 0)

    pc = classify_tube_plane([e[0], e[1], e[2]])
    assert pc.kind == "one_singular_point"
    assert pc.inertia == (2, 0, 1)
    assert pc.tangent_point is not None
    assert pc.tangent_point.kind == "point"
    assert np.linalg.norm(pc.tangent_point.point) < 1e-12


def test_plane_class_invariant_under_basis_change():
    rng = np.random.default_rng(17)
    e = np.eye(5)
    for base in ([e[1], e[2], e[3]], [e[0], e[4], e[1]], [e[0], e[1], e[2]]):
        b = np.stack(base)
        kind0 = classify_tube_plane(b).kind
        for _ in range(5):
            m = rng.standard_normal((3, 3))
            while abs(np.linalg.det(m)) < 0.1:
                m = rng.standard_normal((3, 3))
            assert classify_tube_plane(m @ b).kind == kind0


def test_plane_inertia_matches_ldl_oracle():
    g = form_matrix(3)
    rng = np.random.default_rng(7)
    checked = 0
    while checked < 100:
        b = rng.standard_normal((3, 5))
        if np.linalg.svd(b, compute_uv=False)[-1] < 1e-6:
            continue
        gram = b @ g @ b.T
        gram = 0.5 * (gram + gram.T)
        _, d, _ = sla.ldl(gram)
        ev = np.linalg.eigvalsh(0.5 * (d + d.T))
        band = 1e-9 * max(np.max(np.abs(ev)), 1e-300)
        inertia = (
            int(np.sum(ev > band)),
            int(np.sum(ev < -band)),
            int(np.sum(np.abs(ev) <= band)),
        )
        assert classify_tube_plane(b).inertia == inertia
        checked += 1


def test_degenerate_span_rejected():
    e = np.eye(5)
    with pytest.raises(DomainError):
        classify_tube_plane([e[1], e[2], e[1] + e[2]])


def test_plane_classes_of_frame_spans():
    # the span {a0, a1, a4} is the plane of the characteristic circle, so it
    # always meets the quadric in a real circle; swapping a4 for the sphere
    # vector a3 yields a plane tangent to the quadric exactly at x0
    from canalgeo.envelope import family_lift

    for major, rho in [(2.0, 0.5), (1.0, 2.0)]:
        fam = _tube(major, rho)
        co = adapted_frame_coefficients(fam, 0.9)
        fr = co.frame
        pc = classify_tube_plane([fr.a0, fr.a1, fr.a4])
        assert pc.kind == "smooth_tube"
        pc = classify_tube_plane([fr.a0, fr.a1, fr.a3])
        assert pc.kind == "one_singular_point"
        assert pc.tangent_point.kind == "point"
        assert np.allclose(pc.tangent_point.point, fr.x0, atol=1e-8)
        # sanity: the lift itself agrees with the frame's sphere vector
        lift, _ = family_lift(fam, [0.9])
        assert np.allclose(np.abs(lift.coords), np.abs(fr.a3), atol=1e-10)


def test_singular_report_serializes():
    rep = singular_set(adapted_frame_coefficients(_tube(1.0, 2.0), 0.3))
    blob = rep.to_json()
    assert blob["count"] == 2
    assert len(blob["points"]) == 2
    assert blob["coefficients"]["r"] == 1
