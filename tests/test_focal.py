"""Adapted frames, focal determinants, singular points, and plane classes."""

import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg as sla

import canalgeo
from canalgeo import (
    adapted_frame_coefficients,
    classify_tube_plane,
    constraint_residual,
    envelope_surface,
    focal_determinant,
    make_family,
    rank_drop_singular_points,
    singular_set,
)
from canalgeo.conformal import form_matrix, inner
from canalgeo.envelope import FamilyJet, SphereFamily, _lift_jet
from canalgeo.errors import CanalGeoError, DegenerateFrameError, DimensionMismatch, DomainError
from canalgeo.focal import FocalCoefficients, _singular_rows, adapted_frames
from canalgeo.jets import cell_centers


def _tube(major, rho):
    return make_family("circle-tube", {"major": major, "rho": rho})


def _circle_tube_closed_form(co, major, rho):
    """lam22, |lam212|, c22 and D / lam22^2 of a circle tube at the frame's base point.

    psi is the angle of u = (x0 - c) / rho from the inward spine normal and
    omega = major - rho cos(psi); see CHANGES.md for the derivation.
    """
    c = co.frame.center
    u = (co.frame.x0 - c) / rho
    cos_psi = float(u @ (-c / major))
    sin_psi = float(u[2])
    omega = major - rho * cos_psi
    return (
        -major / (rho * omega),
        abs(sin_psi) / abs(omega),
        (major + rho * cos_psi) / (2.0 * rho * rho * omega),
        (rho / major) ** 2 - 1.0,
    )


def _ratio(rep):
    """D / lam22^2, which does not depend on the frame's base point."""
    return rep.discriminant / rep.coefficients.lam22**2


# ---------------------------------------------------------------------------
# singular points of circular-spine tubes: the three discriminant regimes


def test_selfintersecting_tube_two_singular_points():
    fam = _tube(1.0, 2.0)
    expected = np.sqrt(3.0)
    for t0 in (0.3, 2.1):
        rep = singular_set(adapted_frame_coefficients(fam, t0))
        assert rep.count == 2
        assert not rep.degenerate
        assert _ratio(rep) == pytest.approx(3.0, abs=1e-12)
        zs = sorted(p.point[2] for p in rep.points)
        assert zs[0] == pytest.approx(-expected, abs=1e-12)
        assert zs[1] == pytest.approx(expected, abs=1e-12)
        for p in rep.points:
            assert np.linalg.norm(p.point[:2]) < 1e-12


def test_tangent_tube_one_double_point_at_origin():
    fam = _tube(1.0, 1.0)
    # at t = pi/2 the base point's antipode x4 is the double point itself,
    # so lam212 and c22 both vanish and only a frame-free band sees it
    for t0 in (0.3, math.pi / 2, 2.1):
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
        assert _ratio(rep) == pytest.approx(-15.0 / 16.0, abs=1e-12)


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
        assert _ratio(rep) == pytest.approx((rho * kappa) ** 2 - 1.0, rel=1e-12)
        got = sorted((p.point for p in rep.points), key=lambda p: float(p @ binormal))
        for p, sign in zip(got, (-1.0, 1.0)):
            want = c + normal / kappa + sign * half * binormal
            assert np.max(np.abs(p - want)) <= 1e-12


def test_structure_coefficients_golden_values():
    # the closed forms hold at any base point, so check them along the tube
    for major, rho in [(1.0, 2.0), (1.0, 1.0), (2.0, 0.5)]:
        for t0 in (0.3, math.pi / 2, 2.1, 3.665, 5.0):
            co = adapted_frame_coefficients(_tube(major, rho), t0)
            lam22, abs_lam212, c22, ratio = _circle_tube_closed_form(co, major, rho)
            assert co.lam22 == pytest.approx(lam22, abs=1e-12)
            assert abs(co.lam212) == pytest.approx(abs_lam212, abs=1e-12)
            assert co.c22 == pytest.approx(c22, abs=1e-12)
            disc = co.lam212**2 - 2.0 * co.c22
            assert disc / co.lam22**2 == pytest.approx(ratio, abs=1e-12)
            # r = 1 coefficients always satisfy the symmetry constraint exactly
            assert co.constraint_residual() == 0.0


def _tilted_circle_tube(alpha=0.7, major=1.0, rho=2.0):
    """Fat circle tube about a(cos t, sin t cos alpha, sin t sin alpha), exact order-2 jet."""
    ca, sa = math.cos(alpha), math.sin(alpha)

    def jet2(t):
        tv = float(t[0])
        c = major * np.array([math.cos(tv), math.sin(tv) * ca, math.sin(tv) * sa])
        dc = major * np.array([-math.sin(tv), math.cos(tv) * ca, math.cos(tv) * sa])
        return FamilyJet(c=c, dc=dc[None], d2c=-c[None, None], rho=rho, drho=[0.0], d2rho=[[0.0]])

    return SphereFamily(dim_n=3, r=1, jet2=jet2, domain=[[0.0, 2.0 * math.pi]], name="tilted")


def test_base_point_keeps_clear_of_singular_points():
    # a base point near a singular point makes omega = (A_0', A_2) small and
    # the generator equations ill-conditioned; t_bad gave omega = -6.8e-5 and
    # a generator residual of 2.3e-8 under a fixed base angle
    t_bad = 3.8969051867781377
    fam = _tilted_circle_tube()
    ts = np.append(np.linspace(0.0, 2.0 * math.pi, 401), t_bad)
    for t0 in ts:
        co = adapted_frame_coefficients(fam, t0)
        # |x0'| <= |C'| + R |T'| = 3 here; the best of 8 angles is far from 0
        assert abs(co.omega_rate) > 0.5
        rep = singular_set(co)
        assert rep.count == 2
        for p in rep.points:
            x0, x1, x4 = p.generator
            assert abs(x1 * x1 - 2.0 * x0 * x4) <= 1e-12
            assert abs(x0 + co.lam212 * x1 + co.c22 * x4) <= 1e-12


def _scene_batch_families(seed):
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
    try:
        import inputs
    finally:
        sys.path.pop(0)
    return [make_family(e["name"], e["data"]) for e in inputs.batch_scene(seed)["families"]]


def test_singular_point_angles_are_chart_coordinates():
    fams = [
        _tube(1.0, 2.0),
        _tube(1.0, 1.0),
        make_family("helix-tube", {"major": 2.0, "pitch": 0.5, "rho": 3.0}),
        make_family("wobble-tube"),
    ] + _scene_batch_families(4000)
    checked = 0
    for fam in fams:
        surf = envelope_surface(fam)
        for t0 in cell_centers(fam.domain, 24)[:, 0]:
            rep = singular_set(adapted_frame_coefficients(fam, t0))
            for p in rep.points:
                assert np.max(np.abs(surf.chart([t0, p.angle]) - p.point)) <= 1e-12
                checked += 1
    assert checked > 500


def test_discriminant_ratio_is_the_darboux_curvature():
    # D / lam22^2 = (K, K) for the Darboux curvature vector K = (A_2' + sigma A_3) / sigma
    fams = [make_family(name) for name in ("circle-tube", "helix-tube", "line-cone", "wobble-tube")]
    checked = 0
    for fam in fams + _scene_batch_families(1):
        ts = cell_centers(fam.domain, 24)
        a3, da, d2a = _lift_jet(fam.jets_at(ts))
        da3, d2a3 = da[:, 0], d2a[:, 0, 0]
        sigma = np.sqrt(inner(da3, da3))[:, None]
        da2 = d2a3 / sigma - da3 * inner(da3, d2a3)[:, None] / sigma**3
        kk = inner(da2 + sigma * a3, da2 + sigma * a3) / sigma[:, 0] ** 2
        for rep, want in zip(_singular_rows(fam, ts), kk.tolist()):
            if isinstance(rep, CanalGeoError):
                continue
            assert abs(_ratio(rep) - want) <= 1e-12 * max(1.0, abs(want)), fam.name
            checked += 1
    assert checked > 500


def _moved_circle_tube(major, rho, scale=1.0, shift=0.0, warp=0.0):
    """The circle tube scaled by ``scale``, translated by ``shift`` along (1, 1, 1) and
    reparametrized by t -> t + warp sin t, with its exact order-2 jet."""

    def jet2(t):
        tv = float(t[0])
        u, du, d2u = tv + warp * math.sin(tv), 1.0 + warp * math.cos(tv), -warp * math.sin(tv)
        radial = np.array([math.cos(u), math.sin(u), 0.0])
        along = np.array([-math.sin(u), math.cos(u), 0.0])
        m = scale * major
        return FamilyJet(
            c=m * radial + shift,
            dc=(m * du * along)[None],
            d2c=(m * (d2u * along - du * du * radial))[None, None],
            rho=scale * rho,
            drho=[0.0],
            d2rho=[[0.0]],
        )

    return SphereFamily(dim_n=3, r=1, jet2=jet2, domain=[[0.0, 2.0 * math.pi]], name="moved")


@pytest.mark.parametrize(
    "motion",
    [
        {"scale": 1e6},
        {"scale": 1e-6},
        {"scale": 1e13},
        {"scale": 1e14},
        {"scale": 1e-14},
        {"shift": 1e3},
        {"shift": 1e6},
        {"warp": 0.3},
    ],
    ids=[
        "scaled-up",
        "scaled-down",
        "scaled-1e13",
        "scaled-1e14",
        "scaled-1e-14",
        "shifted-1e3",
        "shifted-1e6",
        "warped",
    ],
)
def test_circle_tube_counts_do_not_depend_on_scale_position_or_parameter(motion):
    # the degeneracy bound |omega| <= _OMEGA_REL R sigma is a ratio that none of these change
    for major, rho, count in ((1.0, 2.0, 2), (1.0, 1.0, 1), (2.0, 0.5, 0)):
        fam = _moved_circle_tube(major, rho, **motion)
        reports = _singular_rows(fam, cell_centers(fam.domain, 24))
        assert [getattr(rep, "count", rep) for rep in reports] == [count] * 24


@pytest.mark.parametrize("scale", [1e13, 1e14])
def test_large_catalog_tube_keeps_its_frames(scale):
    # lam22 = -sigma/omega scales as 1/length; the omega bound alone decides degeneracy
    fam = _tube(2.0 * scale, 0.5 * scale)
    reports = _singular_rows(fam, cell_centers(fam.domain, 24))
    assert [getattr(rep, "count", rep) for rep in reports] == [0] * 24
    assert all(not rep.degenerate for rep in reports)


def _pencil_through_a_circle(a, x):
    """Spheres about (x, 0, t) of radius sqrt(a^2 + t^2), t in [0.1 a, 2 a]: every member
    passes through the circle of radius a about (x, 0, 0) in z = 0, their whole envelope."""

    def jet2(t):
        tv = float(t[0])
        rho = math.hypot(a, tv)
        return FamilyJet(
            c=np.array([x, 0.0, tv]),
            dc=np.array([[0.0, 0.0, 1.0]]),
            d2c=np.zeros((1, 1, 3)),
            rho=rho,
            drho=[tv / rho],
            d2rho=[[a * a / rho**3]],
        )

    return SphereFamily(dim_n=3, r=1, jet2=jet2, domain=[[0.1 * a, 2.0 * a]], name="pencil")


@pytest.mark.parametrize("offset", [0.0, 1e3])
@pytest.mark.parametrize("a", [1e-3, 1.0, 1e3, 1e6])
def test_spheres_through_a_fixed_circle_have_no_adapted_frame(a, offset):
    # the characteristic circle does not move, so omega vanishes at every angle
    fam = _pencil_through_a_circle(a, offset * a)
    ts = cell_centers(fam.domain, 24)
    vanished = "transverse rate vanished at every frame angle"
    for t, rep in zip(ts[:, 0].tolist(), _singular_rows(fam, ts)):
        assert isinstance(rep, DegenerateFrameError) and vanished in str(rep)
        with pytest.raises(DegenerateFrameError, match=vanished):
            adapted_frames(fam, [[t]])


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


def test_adapted_frame_scalar_products(fourier_families, rng):
    # (A_0, ..., A_4) of every frame has the Gram matrix of the model form
    fams = [
        make_family("circle-tube"),
        _tube(1.0, 2.0),
        make_family("helix-tube"),
        make_family("wobble-tube"),
        make_family("line-cone"),
    ] + [fourier_families(rng, 3, name=f"f{k}", rho0=(2.6 if k % 2 else None)) for k in range(5)]
    g = form_matrix(3)
    for fam in fams:
        for co in adapted_frames(fam, cell_centers(fam.domain, 24)):
            fr = co.frame
            basis = np.stack([fr.a0, fr.a1, fr.a2, fr.a3, fr.a4])
            gram = basis @ g @ basis.T
            assert np.max(np.abs(gram - g)) <= 1e-13 * np.max(np.abs(basis)) ** 2, fam.name


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
    # the oracle scans the envelope chart, so it locates points by chart angle
    two_pi = 2.0 * math.pi
    helix = make_family("helix-tube", {"major": 2.0, "pitch": 0.5, "rho": 3.0})
    cases = [
        (_tube(1.0, 2.0), (2, 2)),
        (_tube(2.0, 0.5), (0, 0)),
        (helix, (2, 2)),
        (make_family("wobble-tube"), (2, 0)),
    ]
    for fam, wants in cases:
        for t0, want in zip((0.3, 2.1), wants):
            rep = singular_set(adapted_frame_coefficients(fam, t0))
            oracle = rank_drop_singular_points(fam, t0)
            assert rep.count == oracle.count == want
            slow = np.asarray(oracle.points)
            for p in rep.points:
                # match points pairwise regardless of ordering
                assert np.linalg.norm(slow - p.point, axis=1).min() < 1e-6
                gaps = (np.array(oracle.angles) - p.angle + math.pi) % two_pi - math.pi
                assert np.min(np.abs(gaps)) <= 1e-6


def _reference_rank_drop(fam, t):
    """The oracle's algorithm written out plainly: one envelope chart call per stencil,
    singular values from ``np.linalg.svd``, and one candidate dip refined at a time.

    Returns (angles, points, min_ratio) for comparison with `rank_drop_singular_points`.
    """
    step, scan, points, rounds = 1e-5, 720, 33, 5
    surf = envelope_surface(fam)
    two_pi = 2.0 * math.pi

    def ratio_batch(thetas):
        k = thetas.size
        u = np.stack([np.full(k, t), thetas], axis=-1)
        steps = np.array([[step, 0.0], [-step, 0.0], [0.0, step], [0.0, -step]])
        x = surf.chart((u + steps[:, None]).reshape(-1, 2)).reshape(4, k, -1)
        jac = np.stack([x[0] - x[1], x[2] - x[3]], axis=-1) / (2 * step)
        sv = np.linalg.svd(jac, compute_uv=False)
        return sv[:, 1] / sv[:, 0]

    thetas = np.linspace(0.0, two_pi, scan, endpoint=False)
    ratio = ratio_batch(thetas)
    spacing = two_pi / scan
    accepted = []
    for i in range(scan):
        if ratio[i] < 5e-2 and ratio[i] <= ratio[i - 1] and ratio[i] <= ratio[(i + 1) % scan]:
            lo, hi = thetas[i] - spacing, thetas[i] + spacing
            for _ in range(rounds):
                grid = np.linspace(lo, hi, points)
                fine = ratio_batch(grid)
                best = int(np.argmin(fine))
                lo, hi = grid[max(best - 1, 0)], grid[min(best + 1, points - 1)]
            if fine[best] < 1e-6:
                accepted.append(float(grid[best]) % two_pi)
    accepted.sort()
    merged = []
    for ang in accepted:
        if merged and min(abs(ang - merged[-1]), two_pi - abs(ang - merged[-1])) < 1e-2:
            continue
        merged.append(ang)
    if len(merged) > 1:
        if min(abs(merged[0] - merged[-1]), two_pi - abs(merged[0] - merged[-1])) < 1e-2:
            merged.pop()
    pts = np.empty((0, 3))
    if merged:
        pts = surf.chart(np.stack([np.full(len(merged), t), merged], axis=-1))
    return merged, pts, float(np.min(ratio))


def test_rank_drop_oracle_matches_reference_algorithm(fourier_families, rng):
    families = [
        _tube(1.0, 2.0),
        _tube(2.0, 0.5),
        make_family("helix-tube", {"major": 2.0, "pitch": 0.5, "rho": 3.0}),
        make_family("wobble-tube"),
    ]
    for k in range(4):  # alternating thin and fat
        families.append(fourier_families(rng, 3, name=f"f{k}", rho0=(2.6 if k % 2 else None)))
    found = 0
    for fam in families:
        lo, hi = fam.domain[0]
        for t in (0.3, 2.1, lo + 0.37 * (hi - lo)):
            oracle = rank_drop_singular_points(fam, t)
            angles, points, min_ratio = _reference_rank_drop(fam, t)
            assert oracle.count == len(angles)
            found += oracle.count
            np.testing.assert_allclose(oracle.angles, angles, rtol=0, atol=1e-12)
            np.testing.assert_allclose(oracle.points, points, rtol=0, atol=1e-12)
            assert oracle.min_ratio == pytest.approx(min_ratio, rel=0, abs=1e-12)
    assert found >= 10  # the comparison covers refined dips, not only circles without any


def test_rank_drop_oracle_rejects_a_step_lost_to_rounding():
    fam = make_family("circle-tube", {})
    far = 1e11  # t +- step still distinct: both paths see a regular circle
    assert rank_drop_singular_points(fam, far).count == 0
    assert singular_set(adapted_frame_coefficients(fam, far)).count == 0
    for t in (1e12, 1e16):
        # the +-t column of the stencil would be zero and every angle a rank drop
        lost = re.escape(f"step 1e-05 is lost to rounding at t={t}")
        with pytest.raises(DomainError, match=lost):
            rank_drop_singular_points(fam, t)


def test_oracle_call_does_not_import_numpy_ma():
    # numpy.ma is a lazy import of about 12 ms that np.unique pulls in; a fresh process
    # that makes an oracle call must not load it
    code = (
        "import sys\n"
        "from canalgeo import make_family, rank_drop_singular_points\n"
        "report = rank_drop_singular_points(make_family('wobble-tube'), 0.7)\n"
        "assert report.count == 2, report\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    src = str(Path(canalgeo.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"


def _wide_sampled_family():
    """Radius 4 + 3 sin t about a circle of speed 2: imaginary circles where |3 cos t| > 2."""
    ts = np.linspace(0.0, 2.0 * math.pi, 48)
    data = {
        "t": ts.tolist(),
        "centers": np.stack([2 * np.cos(ts), 2 * np.sin(ts), 0 * ts], axis=1).tolist(),
        "radii": (4 + 3 * np.sin(ts)).tolist(),
    }
    return make_family("sampled", data)


def test_rank_drop_oracle_raises_the_chart_error_of_its_first_failing_row():
    fam = _wide_sampled_family()
    surf = envelope_surface(fam)
    step = 1e-5

    def chart_error(t):
        try:
            surf.chart([t, 0.0])
        except CanalGeoError as err:
            return err
        return None

    # bisect to the edge where the circles turn imaginary, so that t - step is real and t is not
    good, bad = 1.5, 3.0
    assert chart_error(good) is None and chart_error(bad) is not None
    while bad - good > step / 4:
        mid = 0.5 * (good + bad)
        good, bad = (good, mid) if chart_error(mid) else (mid, bad)
    edge = bad
    assert chart_error(edge - step) is None
    for t, row in ((edge, edge), (math.pi, math.pi - step)):
        # the stencil rows t - step, t, t + step are built in increasing t, as the chart orders them
        want = chart_error(row)
        with pytest.raises(CanalGeoError) as got:
            rank_drop_singular_points(fam, t)
        assert type(got.value) is type(want)
        assert str(got.value) == str(want)
        assert type(want) is type(chart_error(t))


@pytest.mark.parametrize("t", [math.nan, math.inf])
def test_rank_drop_oracle_names_a_non_finite_t(t):
    with pytest.raises(DomainError, match=re.escape(f"parameter row 0 is not finite: [{t}]")):
        rank_drop_singular_points(_tube(2.0, 0.5), t)


def test_singular_rows_are_each_t_alone():
    # imaginary circles on part of the grid: those t keep the error they raise alone
    fam = _wide_sampled_family()
    ts = cell_centers(fam.domain, 24)
    reports = _singular_rows(fam, ts)
    assert len(reports) == 24
    assert 0 < sum(isinstance(rep, CanalGeoError) for rep in reports) < 24
    for t, rep in zip(ts[:, 0].tolist(), reports):
        try:
            alone = singular_set(adapted_frame_coefficients(fam, t))
        except CanalGeoError as err:
            assert (type(rep), str(rep)) == (type(err), str(err))
            continue
        assert (rep.t, rep.count, rep.discriminant) == (alone.t, alone.count, alone.discriminant)
        assert rep.degenerate == alone.degenerate
        for p, q in zip(rep.points, alone.points, strict=True):
            assert (p.generator, p.angle) == (q.generator, q.angle)
            assert np.array_equal(p.point, q.point)


def test_singular_report_residual_is_the_largest_equation_miss():
    counts = set()
    for major, rho in ((1.0, 2.0), (2.0, 0.5)):
        for t in (0.3, 1.7):
            rep = singular_set(adapted_frame_coefficients(_tube(major, rho), t))
            co = rep.coefficients
            misses = [0.0]
            for x0, x1, x4 in (p.generator for p in rep.points):
                misses += [abs(x1 * x1 - 2.0 * x0 * x4), abs(x0 + co.lam212 * x1 + co.c22 * x4)]
            assert rep.residual == max(misses)
            counts.add(rep.count)
    assert counts == {0, 2}


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


def _plane_spans():
    """Spans of a worked tube plane of each kind, and a plane tangent to the quadric at
    p = (1, 2, 3): the lift of p and the tangent vectors (0, e_i, p_i), mixed."""
    e = np.eye(5)
    p = np.array([1.0, 2.0, 3.0])
    lift = np.r_[1.0, p, p @ p / 2]
    tangent = np.stack([lift, np.r_[0.0, e[0, :3], p[0]], np.r_[0.0, e[1, :3], p[1]]])
    mix = np.array([[1.0, 0.5, -0.25], [0.75, -1.0, 0.5], [0.25, 0.5, 1.0]])
    worked = [e[[1, 2, 3]], e[[0, 4, 1]], e[[0, 1, 2]]]
    return worked + [mix @ tangent]


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_plane_class_does_not_depend_on_the_scale_of_its_vectors():
    for b in _plane_spans():
        want = classify_tube_plane(b)
        for s in (2.0**-500, 1e-170, 1e-3, 1e3, 2.0**400):
            got = classify_tube_plane(s * b)
            assert (got.kind, got.inertia) == (want.kind, want.inertia)
            if want.tangent_point is None:
                assert got.tangent_point is None
            else:
                assert got.tangent_point.kind == want.tangent_point.kind == "point"
                point = want.tangent_point.point
                np.testing.assert_allclose(got.tangent_point.point, point, atol=1e-12)
        with pytest.raises(DomainError, match="Gram matrix of the spanning vectors overflows"):
            classify_tube_plane(1e160 * b)
    # the Gram matrix is that of the given vectors, bit for bit at a power-of-two scale
    b = _plane_spans()[3]
    gram = inner(b[:, None], b[None])
    gram = 0.5 * (gram + gram.T)
    assert np.array_equal(classify_tube_plane(b).gram, gram)
    assert np.array_equal(classify_tube_plane(2.0**40 * b).gram, 2.0**80 * gram)


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

