"""Family lifts, de Sitter classification, characteristic spheres, meshes."""

import dataclasses
import math
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import sympy as sp

from canalgeo import (
    DegenerateFrameError,
    DomainError,
    ImaginaryCharacteristicError,
    build_tensors,
    causal_classify_family,
    characteristic_sphere,
    detect_canal,
    envelope_mesh,
    envelope_surface,
    evaluate_jet,
    family_catalog,
    family_from_expressions,
    family_lift,
    inner,
    make_family,
    principal_spectrum,
    rank_drop_singular_points,
    sampled_family,
)
from canalgeo.envelope import (
    _DIRECTION_SCAN,
    _POLAR_MARGIN,
    FamilyJet,
    SphereFamily,
    _direction_candidates,
    _lift_jet,
    _velocity_gram,
    batched_jet,
)
from canalgeo.focal import _singular_rows
from canalgeo.jets import cell_centers


def test_family_lift_is_unit(fourier_families, rng):
    for dim_n in (3, 4):
        fam = fourier_families(rng, dim_n)
        for t in np.linspace(0.2, 6.0, 7):
            a, da = family_lift(fam, np.array([t]))
            assert a.norm2() == pytest.approx(1.0, abs=1e-12)
            # velocity stays tangent to the unit quadric
            assert inner(a.coords, da[0]) == pytest.approx(0.0, abs=1e-10)


def test_circle_tube_velocity_norm():
    # c = (cos t, sin t, 0), rho = 2: (A', A') = (|c'|^2 - rho'^2) / rho^2 = 1/4.
    fam = make_family("circle-tube", {"major": 1.0, "rho": 2.0})
    _, da = family_lift(fam, np.array([0.8]))
    assert inner(da[0], da[0]) == pytest.approx(0.25, abs=1e-12)


def test_causal_verdicts_catalog():
    fam = make_family("circle-tube", {"major": 2.0, "rho": 0.5})
    rep = causal_classify_family(fam, counts=32)
    assert rep.verdict == "canal"
    assert rep.counts["spacelike"] == 32
    assert rep.counts["timelike"] == 0

    # A pencil of concentric spheres moves along a timelike line.
    def jet2(t):
        t = float(np.asarray(t).reshape(-1)[0])
        return FamilyJet(
            c=np.zeros(3),
            dc=np.zeros((1, 3)),
            d2c=np.zeros((1, 1, 3)),
            rho=1.0 + 0.5 * t,
            drho=np.array([0.5]),
            d2rho=np.array([[0.0]]),
        )

    shrink = SphereFamily(dim_n=3, r=1, jet2=jet2, domain=((0.0, 1.0),), name="concentric")
    rep = causal_classify_family(shrink, counts=8)
    assert rep.verdict == "no_envelope"
    assert rep.counts["timelike"] == 8


def test_causal_stationary_family_degenerate():
    def jet2(t):
        return FamilyJet(
            c=np.array([1.0, 0.0, 0.0]),
            dc=np.zeros((1, 3)),
            d2c=np.zeros((1, 1, 3)),
            rho=2.0,
            drho=np.array([0.0]),
            d2rho=np.array([[0.0]]),
        )

    fam = SphereFamily(dim_n=3, r=1, jet2=jet2, domain=((0.0, 1.0),), name="frozen")
    rep = causal_classify_family(fam, counts=5)
    assert rep.verdict == "degenerate"
    assert rep.counts["stationary"] == 5


def test_causal_sign_matches_euclidean_data(fourier_families, rng):
    # spacelike exactly when |c'|^2 > rho'^2
    for _ in range(5):
        fam = fourier_families(rng, 3)
        rep = causal_classify_family(fam, counts=16)
        for s in rep.samples:
            jet = fam.jet_at(np.asarray(s.t))
            expected = float(jet.dc[0] @ jet.dc[0]) - float(jet.drho[0]) ** 2
            assert s.kind == ("spacelike" if expected > 0 else "timelike")
            assert s.value == pytest.approx(expected / jet.rho**2, rel=1e-9)


def test_characteristic_sphere_cone_family():
    # c = (t, 0, 0), rho = t/2: correction -rho rho' / |c'|^2 = -t/4 along x,
    # so the circle sits at 3t/4 with radius t sqrt(3)/2... times rho scaling.
    fam = make_family("line-cone", {"slope": 0.5})
    for t in (0.8, 1.0, 1.6):
        ch = characteristic_sphere(fam, t)
        assert ch.m == 1
        assert np.allclose(ch.center, [0.75 * t, 0.0, 0.0], atol=1e-12)
        assert ch.radius == pytest.approx(np.sqrt(3.0) * t / 4.0, abs=1e-12)
        assert np.allclose(ch.member_center, [t, 0.0, 0.0])
        assert ch.member_radius == pytest.approx(0.5 * t)


def test_characteristic_sphere_torus_family():
    fam = make_family("circle-tube", {"major": 2.0, "rho": 1.0})
    ch = characteristic_sphere(fam, 0.3)
    # constant radius: the circle is the full great circle of the sphere
    assert np.allclose(ch.center, [2.0 * np.cos(0.3), 2.0 * np.sin(0.3), 0.0], atol=1e-12)
    assert ch.radius == pytest.approx(1.0, abs=1e-12)


def test_characteristic_sphere_imaginary():
    def jet2(t):
        t = float(np.asarray(t).reshape(-1)[0])
        return FamilyJet(
            c=np.array([t, 0.0, 0.0]),
            dc=np.array([[1.0, 0.0, 0.0]]),
            d2c=np.zeros((1, 1, 3)),
            rho=0.2,
            drho=np.array([2.0]),   # |rho'| > |c'|: no real characteristic
            d2rho=np.array([[0.0]]),
        )

    fam = SphereFamily(dim_n=3, r=1, jet2=jet2, domain=((0.0, 1.0),), name="steep")
    with pytest.raises(ImaginaryCharacteristicError):
        characteristic_sphere(fam, 0.5)


def _sheet_family(dc_rows, drho):
    """An r = 2 family in R^4 with constant spine rows and radius slopes."""
    dc_rows, drho = np.asarray(dc_rows, dtype=float), np.asarray(drho, dtype=float)

    def jet2(t):
        t = np.asarray(t, dtype=float).reshape(-1)
        return FamilyJet(
            c=t @ dc_rows,
            dc=dc_rows,
            d2c=np.zeros((2, 2, 4)),
            rho=1.0 + float(drho @ t),
            drho=drho,
            d2rho=np.zeros((2, 2)),
        )

    return SphereFamily(dim_n=4, r=2, jet2=jet2, domain=((0.0, 1.0), (0.0, 1.0)), name="sheet")


def test_characteristic_sphere_r2_closed_form():
    # c = (t0, t1, 0, 0), rho = 1 + 0.3 t0: the conditions (x - c).e_p = -rho drho_p
    # put the centre at c - 0.3 rho e_0, and the radius is rho sqrt(1 - 0.09)
    fam = _sheet_family([[1.0, 0, 0, 0], [0, 1.0, 0, 0]], [0.3, 0.0])
    for t in ([0.2, 0.7], [0.9, 0.1], [0.5, 0.5]):
        ch = characteristic_sphere(fam, t)
        rho = 1.0 + 0.3 * t[0]
        assert ch.m == 1
        want = np.array([t[0] - 0.3 * rho, t[1], 0.0, 0.0])
        assert np.max(np.abs(ch.center - want)) <= 1e-15
        assert ch.radius == pytest.approx(rho * np.sqrt(0.91), rel=1e-15)
        assert ch.member_radius == pytest.approx(rho, rel=1e-15)


def test_characteristic_sphere_rank_deficient_spine_raises():
    # two equal spine rows with different radius slopes: the envelope
    # conditions are inconsistent, so there is no characteristic sphere
    fam = _sheet_family([[1.0, 0, 0, 0], [1.0, 0, 0, 0]], [0.3, 0.1])
    with pytest.raises(DegenerateFrameError):
        characteristic_sphere(fam, [0.5, 0.5])


def test_chart_and_mesh_raise_the_first_failing_rows_error():
    # alone, t = 0.5 fails a later check (imaginary circle) than t = 2 (the spine stalls)
    t = sp.Symbol("t", real=True)
    fam = family_from_expressions(
        t, (t - 2) ** 3, 0, 20 + 10 * t - sp.Rational(5, 2) * t**2, 3, (0.0, 3.0)
    )
    with pytest.raises(ImaginaryCharacteristicError) as alone:
        characteristic_sphere(fam, 0.5)
    assert str(alone.value) == "characteristic sphere is imaginary at t=(0.5,)"
    with pytest.raises(DegenerateFrameError, match=r"rank-deficient at t=\(2\.0,\)"):
        characteristic_sphere(fam, 2.0)
    surf = envelope_surface(fam)
    for rows in ([[0.5, 0.0], [2.0, 0.0]], [[2.0, 0.0], [0.5, 1.0]]):
        with pytest.raises(ImaginaryCharacteristicError) as chart:
            surf.chart(rows)
        assert str(chart.value) == str(alone.value)
    with pytest.raises(ImaginaryCharacteristicError) as mesh:
        envelope_mesh(fam, t_count=7, angle_count=4)  # t = 0, 0.5, ..., 3
    assert str(mesh.value) == str(alone.value)


def test_envelope_chart_tangency(fourier_families, rng):
    fam = fourier_families(rng, 3)
    env = envelope_surface(fam)
    for u in env.sample_grid((5, 5)):
        jet = evaluate_jet(env, u)
        jf = fam.jet_at(np.array([u[0]]))
        # on the sphere
        assert np.linalg.norm(jet.p - jf.c) == pytest.approx(float(jf.rho), abs=1e-10)
        # normal is radial
        radial = (jet.p - jf.c) / float(jf.rho)
        align = abs(float(radial @ jet.nu))
        assert align == pytest.approx(1.0, abs=1e-6)


def test_envelope_of_torus_family_is_torus():
    fam = make_family("circle-tube", {"major": 2.0, "rho": 0.5})
    env = envelope_surface(fam)
    for u in env.sample_grid((6, 6)):
        p = env.chart(u)
        assert (np.hypot(p[0], p[1]) - 2.0) ** 2 + p[2] ** 2 == pytest.approx(
            0.25, abs=1e-10
        )
    rep = detect_canal(env, counts=(6, 6))
    assert rep.is_canal
    assert rep.signature == (1, 1)


def test_envelope_mesh_torus_implicit():
    fam = make_family("circle-tube", {"major": 2.0, "rho": 1.0})
    mesh = envelope_mesh(fam, t_count=48, angle_count=24)
    assert mesh.vertices.shape == (48 * 24, 3)
    assert mesh.normals.shape == mesh.vertices.shape
    x, y, z = mesh.vertices.T
    resid = np.abs((np.hypot(x, y) - 2.0) ** 2 + z**2 - 1.0)
    assert resid.max() < 1e-8
    assert np.allclose(np.linalg.norm(mesh.normals, axis=1), 1.0, atol=1e-10)
    assert mesh.faces is not None
    assert mesh.faces.shape[1] == 3
    assert mesh.faces.max() < mesh.vertices.shape[0]


def _loop_faces(t_count, angle_count):
    """Two triangles per grid quad, closed in the angle, open along t."""
    faces = []
    for i in range(t_count - 1):
        for j in range(angle_count):
            a = i * angle_count + j
            b = i * angle_count + (j + 1) % angle_count
            c, d = a + angle_count, b + angle_count
            faces += [(a, b, d), (a, d, c)]
    return np.asarray(faces, dtype=int)


def _mesh_params(family, t_count, angle_count):
    """The t-major (t, polar angles..., azimuth) rows whose chart points are the mesh vertices."""
    lo, hi = family.domain[0]
    polar = np.linspace(_POLAR_MARGIN, math.pi - _POLAR_MARGIN, max(angle_count // 2, 4))
    axes = [np.linspace(lo, hi, t_count)] + [polar] * (family.dim_n - 3)
    axes.append(np.linspace(0.0, 2.0 * math.pi, angle_count, endpoint=False))
    return np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")], axis=-1)


def test_envelope_mesh_normals_radial():
    t_count, angle_count = 16, 12
    for name, params in (
        ("circle-tube", {"major": 2.0, "rho": 1.0}),
        ("r4-circle", {"major": 2.0, "rho": 0.5}),
    ):
        fam = make_family(name, params)
        mesh = envelope_mesh(fam, t_count=t_count, angle_count=angle_count)
        surf = envelope_surface(fam)
        grid = _mesh_params(fam, t_count, angle_count)
        assert np.array_equal(mesh.vertices, surf.chart(grid))
        single = np.array([surf.chart(prm) for prm in grid])
        assert np.array_equal(mesh.vertices, single)
        if fam.dim_n > 3:  # no record of any file holds an n >= 4 normal, so the mesh has none
            assert mesh.normals is None and mesh.faces is None
            continue
        normals = np.empty_like(mesh.vertices)
        for i, prm in enumerate(grid):
            jf = fam.jet_at(prm[:1])
            normals[i] = (mesh.vertices[i] - jf.c) / jf.rho
        assert np.array_equal(mesh.normals, normals)
        assert np.array_equal(mesh.faces, _loop_faces(t_count, angle_count))


def test_n4_envelope_mesh_holds_its_vertices_alone():
    # an r4-circle mesh at the default grids keeps no array beside its 16 MiB of
    # vertices: no normals, no faces, no parameter grid, no full-grid temporaries
    family = make_family("r4-circle", None)
    tracemalloc.start()
    try:
        mesh = envelope_mesh(family, t_count=256, angle_count=64)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert mesh.vertices.shape == (256 * 32 * 64, 4)
    assert peak <= 1.25 * mesh.vertices.nbytes, (peak, mesh.vertices.nbytes)
    assert mesh.normals is None and mesh.faces is None


@pytest.mark.parametrize("name", ["circle-tube", "r4-circle"])
def test_envelope_chart_independent_of_batch_size(name):
    fam = make_family(name, {"major": 2.0, "rho": 1.0 if name == "circle-tube" else 0.5})
    surf = envelope_surface(fam)
    rng = np.random.default_rng(7)
    lo, hi = surf.domain[:, 0], surf.domain[:, 1]
    pts = lo + (hi - lo) * rng.random((300, surf.n_params))
    pts[:150, 0] = pts[0, 0]  # many rows sharing one t, as in a mesh block
    whole = surf.chart(pts)
    single = np.array([surf.chart(p) for p in pts])
    assert np.array_equal(whole, single)
    for size in (2, 7, 64):
        chunks = [surf.chart(pts[i : i + size]) for i in range(0, len(pts), size)]
        assert np.array_equal(np.concatenate(chunks), whole)


def test_reference_direction_scanned_once_per_family():
    source = make_family("wobble-tube")
    calls = []

    def counted(t):
        calls.append(t)
        return source.jet2(t)

    def reports(fam):
        return [rank_drop_singular_points(fam, t) for t in (0.7, 2.9)]

    fam = dataclasses.replace(source, jet2=counted)
    charts = [envelope_surface(fam) for _ in range(3)]
    assert len(calls) == _DIRECTION_SCAN
    del calls[:]
    warm = reports(fam)
    warm_calls = len(calls)

    fresh = dataclasses.replace(source, jet2=counted)
    del calls[:]
    cold = reports(fresh)
    # a fresh family scans once, in its first report, and never again
    assert len(calls) == warm_calls + _DIRECTION_SCAN
    for a, b in zip(warm, cold):
        assert (a.t, a.angles, a.min_ratio) == (b.t, b.angles, b.min_ratio)
        assert np.array_equal(a.points, b.points)
    u = envelope_surface(fresh).sample_grid(6)
    for chart in charts:
        assert np.array_equal(chart.chart(u), envelope_surface(source).chart(u))


def _point_clearance(tangents, cands):
    """Each candidate's least 1 + tau.v over the unit directions of the rows of ``tangents``."""
    tangents = tangents / np.linalg.norm(tangents, axis=1)[:, None]
    return (1.0 + tangents @ cands.T).min(axis=0)


def _cell_tangents(family, cells):
    return family.jets_at(cell_centers(family.domain, cells)).dc[:, 0]


def _fourier_tangents(spec, ts):
    """c'(t) at the rows of ts (P, 1) of a Fourier spine of `inputs`, as one array expression."""
    a, b = np.asarray(spec["amp"])
    dc = 2.0 * b * np.cos(2.0 * ts) - 2.0 * a * np.sin(2.0 * ts)
    dc[:, :2] += spec["base"] * np.column_stack([-np.sin(ts[:, 0]), np.cos(ts[:, 0])])
    return dc


def _bench_modules():
    """The benchmark's `inputs` and `verify` modules."""
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
    try:
        import inputs
        import verify
    finally:
        sys.path.pop(0)
    return inputs, verify


def _verify_fourier_families(seeds):
    """(family, spec) of every Fourier family of the verify inputs of ``seeds``."""
    inputs, verify = _bench_modules()
    out = []
    for seed in seeds:
        data = inputs.verify_inputs(seed)
        for key in ("env3", "env4", "singular"):
            for i, spec in enumerate(data[key]):
                out.append((verify.fourier_family(spec, f"{key}{seed}_{i}"), spec))
    return out


# the chosen direction's least clearance over the scan's points may exceed its least over
# 4096 points by this much; over the catalog and the verify families of seeds 1-39 it
# exceeded it by at most 2.2e-4
_SCAN_GAP = 1e-3


def test_reference_scan_matches_a_dense_point_scan():
    catalog = [make_family(name) for name in sorted(family_catalog()) if name != "sampled"]
    cases = [(f, _cell_tangents(f, _DIRECTION_SCAN), _cell_tangents(f, 4096)) for f in catalog]
    for fam, spec in _verify_fourier_families([1, 2, 3]):
        # the closed form is the provider's tangent, 4096 times without a call per row
        scan = _cell_tangents(fam, _DIRECTION_SCAN)
        closed = _fourier_tangents(spec, cell_centers(fam.domain, _DIRECTION_SCAN))
        assert np.allclose(closed, scan, rtol=0, atol=1e-12)
        cases.append((fam, scan, _fourier_tangents(spec, cell_centers(fam.domain, 4096))))
    assert len(cases) == 5 + 3 * 11
    for fam, scan, dense in cases:
        direction = fam._reference_frame[0][None]
        gap = _point_clearance(scan, direction) - _point_clearance(dense, direction)
        assert gap[0] <= _SCAN_GAP


def test_sweeping_spine_is_refused(spiral_samples):
    fam = make_family("sampled", spiral_samples)
    with pytest.raises(DegenerateFrameError) as err:
        fam._reference_frame
    assert str(err.value) == "spine tangent sweeps too much of the sphere; no smooth chart frame"
    cands = _direction_candidates(3)
    # 64 points miss the sweep between them: their best clearance clears the 0.05 floor,
    # where the scan's points and 4096 points find less
    assert np.max(_point_clearance(_cell_tangents(fam, 64), cands)) >= 0.05
    assert np.max(_point_clearance(_cell_tangents(fam, _DIRECTION_SCAN), cands)) < 0.05
    assert np.max(_point_clearance(_cell_tangents(fam, 4096), cands)) < 0.05


def test_envelope_chart_and_mesh_take_one_batched_jet_call():
    source = make_family("wobble-tube")
    calls = []

    @batched_jet
    def counted(t):
        calls.append(np.shape(t))
        return source.jet2(t)

    fam = dataclasses.replace(source, jet2=counted)
    surf = envelope_surface(fam)  # the reference scan: one batched call
    assert calls == [(_DIRECTION_SCAN, 1)]
    del calls[:]
    envelope_mesh(fam, t_count=16, angle_count=8)
    assert calls == [(16, 1)]
    del calls[:]
    rows = np.column_stack([np.repeat([0.4, 1.1, 2.5, 3.0, 5.2], 7), np.linspace(0.0, 6.0, 35)])
    surf.chart(rows[np.random.default_rng(3).permutation(35)])
    assert calls == [(5, 1)]
    del calls[:]
    assert surf.chart(np.empty((0, 2))).shape == (0, 3)
    assert calls == []


def test_envelope_mesh_r4_has_no_faces():
    fam = make_family("r4-circle", {"major": 2.0, "rho": 0.5})
    mesh = envelope_mesh(fam, t_count=8, angle_count=8)
    assert mesh.faces is None
    assert mesh.vertices.shape[1] == 4


def test_envelope_mesh_refuses_a_family_in_the_plane():
    # r = 1 in R^2 leaves a point pair, not a circle, as the characteristic set
    ts = np.linspace(0.0, 1.0, 9)
    fam = sampled_family(ts, np.stack([ts, 0 * ts], axis=1), np.full(9, 0.5))
    with pytest.raises(DomainError, match="n >= 3"):
        envelope_mesh(fam, t_count=3, angle_count=8)
    with pytest.raises(DomainError, match="n >= 3"):
        envelope_surface(fam)


def test_sampled_family_matches_source():
    src = make_family("circle-tube", {"major": 2.0, "rho": 0.5})
    ts = np.linspace(0.0, 2 * np.pi, 80)
    centers = np.stack([src.jet_at(np.array([t])).c for t in ts])
    radii = np.array([src.jet_at(np.array([t])).rho for t in ts])
    spl = sampled_family(ts, centers, radii, name="resampled")
    for t in (1.0, 2.5, 4.0):
        a = src.jet_at(np.array([t]))
        b = spl.jet_at(np.array([t]))
        assert np.allclose(a.c, b.c, atol=1e-5)
        assert a.rho == pytest.approx(b.rho, abs=1e-6)
        assert np.allclose(a.dc, b.dc, atol=1e-3)
    rep = causal_classify_family(spl, counts=24)
    assert rep.verdict == "canal"


def test_sampled_family_validation():
    with pytest.raises(DomainError):
        sampled_family([0.0, 1.0, 2.0], np.zeros((3, 3)), [1.0, 1.0, 1.0])
    with pytest.raises(DomainError):
        sampled_family(
            [0.0, 1.0, 0.5, 2.0], np.zeros((4, 3)), [1.0, 1.0, 1.0, 1.0]
        )
    with pytest.raises(DomainError):
        sampled_family(
            [0.0, 1.0, 2.0, 3.0], np.zeros((4, 3)), [1.0, -1.0, 1.0, 1.0]
        )


@pytest.mark.parametrize("field", ["t", "centers", "radii"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_sampled_family_rejects_non_finite_samples(field, bad):
    data = {
        "t": np.array([0.0, 1.0, 2.0, 3.0, 4.0]),
        "centers": np.arange(15.0).reshape(5, 3),
        "radii": np.full(5, 0.5),
    }
    data[field][-1 if field == "t" else 2] = bad
    with pytest.raises(DomainError, match="finite"):
        sampled_family(**data)


def _uneven_samples(rng, n):
    t = np.cumsum(rng.uniform(0.05, 1.5, 9)) - 2.0
    centers = rng.normal(size=(t.size, n))
    radii = rng.uniform(2.0, 3.0, t.size)
    return t, centers, radii


def _jet_orders(fam, x):
    jet = fam.jet_at([x])
    return [
        np.r_[jet.c, jet.rho],
        np.r_[jet.dc[0], jet.drho],
        np.r_[jet.d2c[0, 0], jet.d2rho[0]],
    ]


@pytest.mark.parametrize("n", [3, 4])
def test_sampled_family_is_natural_cubic_spline(n, rng):
    from scipy.interpolate import CubicSpline

    t, centers, radii = _uneven_samples(rng, n)
    fam = sampled_family(t, centers, radii)
    ref = CubicSpline(t, np.column_stack([centers, radii]), bc_type="natural")
    mids = 0.5 * (t[:-1] + t[1:]) + 0.1 * np.diff(t)
    xs = np.concatenate([mids, t, [t[0] - 1e-5, t[-1] + 1e-5]])
    for order in range(3):
        want = ref(xs, order)
        got = np.stack([_jet_orders(fam, x)[order] for x in xs])
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("n", [3, 4])
def test_sampled_family_second_derivative_vanishes_at_end_knots(n, rng):
    t, centers, radii = _uneven_samples(rng, n)
    fam = sampled_family(t, centers, radii)
    scale = max(np.max(np.abs(_jet_orders(fam, x)[2])) for x in t)
    for x in (t[0], t[-1]):
        assert np.max(np.abs(_jet_orders(fam, x)[2])) <= 1e-12 * scale


def test_envelope_requires_r1():
    def jet2(t):
        t = np.asarray(t, dtype=float).reshape(-1)
        return FamilyJet(
            c=np.array([t[0], t[1], 0.0, 0.0]),
            dc=np.array([[1.0, 0, 0, 0], [0, 1.0, 0, 0]]),
            d2c=np.zeros((2, 2, 4)),
            rho=1.0,
            drho=np.zeros(2),
            d2rho=np.zeros((2, 2)),
        )

    fam = SphereFamily(
        dim_n=4, r=2, jet2=jet2, domain=((0.0, 1.0), (0.0, 1.0)), name="plane-of-spheres"
    )
    with pytest.raises(DomainError):
        envelope_surface(fam)


# ---------------------------------------------------------------------------
# the lift by Taylor arithmetic, and similarity invariance


def _batch_samples(seed):
    """The data of every sampled family of the seed's scene-batch scene."""
    inputs, _ = _bench_modules()
    return [entry["data"] for entry in inputs.batch_scene(seed)["families"]]


def _random_jet_fields(rng, rows, r, n):
    """A batched jet of random data with positive radii and arbitrary (asymmetric) d2."""
    return dict(
        c=rng.standard_normal((rows, n)),
        dc=rng.standard_normal((rows, r, n)),
        d2c=rng.standard_normal((rows, r, r, n)),
        rho=0.5 + rng.random(rows),
        drho=0.3 * rng.standard_normal((rows, r)),
        d2rho=rng.standard_normal((rows, r, r)),
    )


def _form_size(x, y):
    """The Euclidean size of the terms of inner(x, y)."""
    mid = np.sum(np.abs(x[..., 1:-1] * y[..., 1:-1]), axis=-1)
    return mid + np.abs(x[..., 0] * y[..., -1]) + np.abs(x[..., -1] * y[..., 0])


def test_lift_stays_on_the_quadric(rng):
    # (A, A) = 1, (A, A_p) = 0 and (A_p, A_q) + (A, A_pq) = 0, each within 1e-13 of the
    # size of its terms; the gram the causal kind reads equals (A_p, A_q) within 1e-13
    catalog = [make_family(name) for name in sorted(family_catalog()) if name != "sampled"]
    jets = [f.jets_at(cell_centers(f.domain, 48)) for f in catalog]
    batch = [make_family("sampled", data) for data in _batch_samples(1)]
    jets += [f.jets_at(cell_centers(f.domain, 48)) for f in batch]
    jets += [FamilyJet(**_random_jet_fields(rng, 16, r, r + 2)) for r in (2, 3)]
    for jet in jets:
        a, da, d2a = _lift_jet(jet)
        assert a.shape == jet.c.shape[:1] + (jet.c.shape[1] + 2,)
        assert da.shape == jet.dc.shape[:2] + a.shape[1:]
        assert d2a.shape == jet.d2c.shape[:3] + a.shape[1:]
        a1, a2 = a[:, None], a[:, None, None]
        da_p, da_q = da[:, :, None], da[:, None, :]
        assert np.all(np.abs(inner(a, a) - 1.0) <= 1e-13 * _form_size(a, a))
        assert np.all(np.abs(inner(a1, da)) <= 1e-13 * _form_size(a1, da))
        second = inner(da_p, da_q) + inner(a2, d2a)
        assert np.all(np.abs(second) <= 1e-13 * (_form_size(da_p, da_q) + _form_size(a2, d2a)))
        gram, scale = _velocity_gram(jet)
        assert np.all(np.abs(gram - inner(da_p, da_q)) <= 1e-13 * scale[:, None, None])


def test_circle_tube_lift_derivatives():
    # c = R (cos t, sin t, 0) and a constant rho: A' = (0, c', 0) / rho, A'' = (0, -c, 0) / rho
    rho = 0.5
    family = make_family("circle-tube", {"major": 2.0, "rho": rho})
    jet = family.jets_at(cell_centers(family.domain, 24))
    _, da, d2a = _lift_jet(jet)
    zero = np.zeros((24, 1))
    for got, want in ((da[:, 0], jet.dc[:, 0]), (d2a[:, 0, 0], -jet.c)):
        assert np.max(np.abs(got - np.hstack([zero, want, zero]) / rho)) <= 1e-14


def test_lift_reads_the_symmetric_part_of_d2(rng):
    # d2 enters as (d2 + d2^T) / 2, so transposing it, or symmetrizing it first, changes no
    # bit; and every row comes out as it does alone
    fields = _random_jet_fields(rng, 9, 2, 4)
    d2c, d2rho = fields.pop("d2c"), fields.pop("d2rho")
    sym_c, sym_rho = 0.5 * (d2c + d2c.swapaxes(1, 2)), 0.5 * (d2rho + d2rho.swapaxes(1, 2))
    lifts = [
        _lift_jet(FamilyJet(d2c=x, d2rho=y, **fields))
        for x, y in ((d2c, d2rho), (d2c.swapaxes(1, 2), d2rho.swapaxes(1, 2)), (sym_c, sym_rho))
    ]
    for other in lifts[1:]:
        for x, y in zip(lifts[0], other):
            assert np.array_equal(x, y)
    assert np.array_equal(lifts[0][2], lifts[0][2].swapaxes(1, 2))
    for i in range(9):
        row = {name: value[i : i + 1] for name, value in fields.items()}
        alone = _lift_jet(FamilyJet(d2c=d2c[i : i + 1], d2rho=d2rho[i : i + 1], **row))
        for x, y in zip(lifts[0], alone):
            assert np.array_equal(x[i], y[0])


def _similar(family, scale=1.0, shift=0.0):
    """``family`` dilated by ``scale`` about the origin, then translated by ``shift`` along
    (1, ..., 1); its provider takes batches only."""

    @batched_jet
    def jet2(ts):
        j = family.jets_at(ts)
        return FamilyJet(
            scale * j.c + shift,
            scale * j.dc,
            scale * j.d2c,
            scale * j.rho,
            scale * j.drho,
            scale * j.d2rho,
        )

    return dataclasses.replace(family, jet2=jet2)


def _singular_counts(family):
    reports = _singular_rows(family, cell_centers(family.domain, 24))
    return [getattr(rep, "count", type(rep)) for rep in reports]


def _causal_kinds(family):
    report = causal_classify_family(family, counts=24)
    return report.verdict, [s.kind for s in report.samples]


@pytest.mark.parametrize(
    "name, scale, shift",
    [
        ("circle-tube", 1e12, 0.0),
        ("circle-tube", 1e14, 0.0),
        ("circle-tube", 1e-12, 0.0),
        ("circle-tube", 1.0, 1e5),
        ("wobble-tube", 1.0, 1e3),
    ],
)
def test_causal_kinds_survive_translation_and_dilation(name, scale, shift):
    family = make_family(name)
    assert _causal_kinds(_similar(family, scale, shift)) == _causal_kinds(family)
    assert _causal_kinds(family)[0] == "canal"


@pytest.mark.parametrize("scale", [1e-13, 1e-14])
def test_tiny_circle_tube_keeps_its_frames(scale):
    # the frame floors are relative to the spine's own speed
    unit = make_family("circle-tube", {"major": 2.0, "rho": 0.5})
    tiny = make_family("circle-tube", {"major": 2.0 * scale, "rho": 0.5 * scale})
    assert _singular_counts(tiny) == _singular_counts(unit) == [0] * 24
    assert _causal_kinds(tiny) == _causal_kinds(unit)
    want = envelope_mesh(unit, t_count=16, angle_count=8).vertices
    got = envelope_mesh(tiny, t_count=16, angle_count=8).vertices
    assert np.max(np.abs(got - scale * want)) <= 1e-15 * scale * np.max(np.abs(want))


@pytest.mark.parametrize(
    "scale, shift", [(1e-3, 0.0), (1e3, 0.0), (1.0, 1e4), (1.0, 1e6)], ids=str
)
def test_batch_families_survive_translation_and_dilation(scale, shift):
    # the seed-1 scene-batch families, their samples moved before the spline is built
    for data in _batch_samples(1):
        t, centers, radii = (np.asarray(data[key]) for key in ("t", "centers", "radii"))
        family = sampled_family(t, centers, radii)
        moved = sampled_family(t, scale * centers + shift, scale * radii)
        assert _causal_kinds(moved) == _causal_kinds(family), data["name"]
        assert _singular_counts(moved) == _singular_counts(family), data["name"]
