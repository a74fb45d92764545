"""Charts, jets, adapted frames, and the shape tensor's derivative."""

import dataclasses
import math
import re
import sys

import numpy as np
import pytest
import sympy as sp

from canalgeo import (
    CanalGeoError,
    DomainError,
    ImmersionError,
    ParametricSurface,
    build_tensors,
    causal_classify_family,
    detect_canal,
    envelope_mesh,
    envelope_surface,
    evaluate_jet,
    fundamental_forms,
    gauge_frame,
    graph_surface,
    make_family,
    make_surface,
    planar_canal_surface,
    principal_spectrum,
    shape_derivative,
    surface_from_expressions,
    third_order_in_principal_frame,
    transform_surface,
)
from canalgeo.jets import FD_STEP, FD_STEP3, _orthonormal_frame, _symmetrize3, cell_centers
from canalgeo.meshio import format_number
from canalgeo.scene import load_scene, run_scene


@pytest.fixture(scope="module")
def torus():
    return make_surface("torus", {"major": 2.0, "minor": 1.0})


def test_torus_outer_equator_jet(torus):
    jet = evaluate_jet(torus, np.array([0.0, 0.0]))
    assert np.allclose(jet.p, [3.0, 0.0, 0.0], atol=1e-14)
    assert np.allclose(np.abs(jet.nu), [1.0, 0.0, 0.0], atol=1e-14)
    _, h = fundamental_forms(jet)
    # Outward normal: curvatures -1/(R+r) and -1/r on the outer equator.
    sign = float(jet.nu[0])
    assert np.allclose(np.sort(np.diag(h)), sign * np.array([-1.0, -1.0 / 3.0]), atol=1e-12)
    assert abs(h[0, 1]) < 1e-13


def test_frame_is_orthonormal_and_tangent(torus):
    rng = np.random.default_rng(4)
    for _ in range(10):
        u = rng.random(2) * [2 * np.pi, 2 * np.pi]
        jet = evaluate_jet(torus, u)
        assert np.allclose(jet.e @ jet.e.T, np.eye(2), atol=1e-12)
        assert np.allclose(jet.e @ jet.nu, 0.0, atol=1e-12)
        assert np.linalg.norm(jet.nu) == pytest.approx(1.0, abs=1e-12)
        # e spans the same plane as the coordinate tangents
        proj = jet.d1.T @ np.linalg.lstsq(jet.d1.T, jet.nu, rcond=None)[0]
        assert np.linalg.norm(proj) < 1e-10



@pytest.mark.parametrize("k", [2, 3, 4])
def test_basis_change_inverts_the_gram_schmidt_triangle(k):
    # W is lower triangular with a positive diagonal and maps d1 onto e
    rng = np.random.default_rng(30 + k)
    for scale in (1e-3, 1.0, 1e3):
        d1 = scale * rng.standard_normal((k, k + 1))
        e, _, w, deficient = (x[0] for x in _orthonormal_frame(d1[None]))
        assert not deficient
        assert np.array_equal(np.triu(w, 1), np.zeros((k, k)))
        assert np.all(np.diag(w) > 0)
        assert np.allclose(w @ d1, e, rtol=0, atol=1e-13)

def test_fd_jet_matches_analytic(torus):
    fd = torus.without_analytic_jet()
    rng = np.random.default_rng(12)
    for _ in range(6):
        u = rng.random(2) * [2 * np.pi, 2 * np.pi]
        ja = evaluate_jet(torus, u)
        jf = evaluate_jet(fd, u)
        assert np.allclose(ja.p, jf.p, atol=1e-12)
        assert np.allclose(ja.d1, jf.d1, atol=1e-8)
        assert np.allclose(ja.d2, jf.d2, atol=1e-6)
        assert np.allclose(ja.d3, jf.d3, atol=1e-4)


def test_shape_derivative_total_symmetry(torus):
    rng = np.random.default_rng(8)
    for _ in range(10):
        u = rng.random(2) * [2 * np.pi, 2 * np.pi]
        lam3 = shape_derivative(evaluate_jet(torus, u))
        assert np.allclose(lam3, np.transpose(lam3, (1, 0, 2)), atol=1e-10)
        assert np.allclose(lam3, np.transpose(lam3, (2, 1, 0)), atol=1e-10)
        assert np.allclose(lam3, np.transpose(lam3, (0, 2, 1)), atol=1e-10)


def test_reparametrization_invariance_of_tensors():
    # The same canal surface, once in an orthogonal chart and once sheared.
    # Curvatures and the principal-frame cubic coefficients must agree;
    # a regression guard for the mixed-index Weingarten term.
    t, th = sp.symbols("t th", real=True)
    rho = sp.Rational(1, 2) + sp.Rational(1, 10) * sp.sin(t)
    delta = -rho * sp.diff(rho, t)
    r_m = sp.sqrt(rho**2 - delta**2)
    plain = surface_from_expressions(
        [t, th],
        [t + delta, r_m * sp.cos(th), r_m * sp.sin(th)],
        domain=[[0.5, 5.5], [0.0, 2 * np.pi]],
        name="plain",
    )
    shear = transform_surface(plain, param_rot=np.array([[1.0, 0.0], [1.0 / 3.0, 1.0]]))

    for u in [np.array([1.7, 0.9]), np.array([3.3, 4.0]), np.array([2.2, 5.1])]:
        ta = build_tensors(evaluate_jet(plain, u))
        # the sheared chart needs shifted parameters to hit the same point
        v = np.array([u[0], u[1] - u[0] / 3.0])
        tb = build_tensors(evaluate_jet(shear, v))
        sa, sb = principal_spectrum(ta), principal_spectrum(tb)
        assert np.allclose(sa.eigenvalues, sb.eigenvalues, atol=1e-10)
        Ta = third_order_in_principal_frame(ta, sa)
        Tb = third_order_in_principal_frame(tb, sb)
        assert np.allclose(np.abs(Ta), np.abs(Tb), atol=1e-9)


def test_rigid_motion_invariance(torus):
    rng = np.random.default_rng(21)
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    if np.linalg.det(q) < 0:
        q[:, 0] *= -1.0
    moved = transform_surface(torus, ambient_rot=q, ambient_shift=np.array([1.0, -2.0, 0.5]))
    for _ in range(6):
        u = rng.random(2) * [2 * np.pi, 2 * np.pi]
        ta = build_tensors(evaluate_jet(torus, u))
        tb = build_tensors(evaluate_jet(moved, u))
        assert np.allclose(
            np.sort(np.linalg.eigvalsh(ta.h)), np.sort(np.linalg.eigvalsh(tb.h)), atol=1e-10
        )
        assert ta.lam == pytest.approx(tb.lam, abs=1e-10)


def test_domain_validation(torus):
    with pytest.raises(DomainError):
        evaluate_jet(torus, np.array([0.0, 0.0, 0.0]))


def test_rank_deficient_chart_raises():
    line = ParametricSurface(
        dim_n=3,
        chart=lambda u: np.stack(
            [u[..., 0], u[..., 0], np.zeros_like(u[..., 0])], axis=-1
        ),
        jet=None,
        domain=[[0.0, 1.0], [0.0, 1.0]],
        name="collapsed",
    )
    with pytest.raises(ImmersionError):
        evaluate_jet(line, np.array([0.5, 0.5]))


def test_non_finite_chart_derivative_raises():
    # sqrt of a negative turns the finite-difference tangent into NaN
    bad = ParametricSurface(
        dim_n=3,
        chart=lambda u: np.stack(
            [u[..., 0], u[..., 1], np.sqrt(0.5 - u[..., 0])], axis=-1
        ),
        jet=None,
        domain=[[0.0, 1.0], [0.0, 1.0]],
        name="torn",
    )
    with np.errstate(invalid="ignore"), pytest.raises(ImmersionError, match="not finite"):
        evaluate_jet(bad, np.array([0.5, 0.5]))


def test_gauge_frame_relations(torus):
    rng = np.random.default_rng(17)
    for _ in range(8):
        u = rng.random(2) * [2 * np.pi, 2 * np.pi]
        jet = evaluate_jet(torus, u)
        frame = gauge_frame(jet)
        assert frame.residual < 1e-10
        assert frame.a0.norm2() == pytest.approx(0.0, abs=1e-10)
        assert frame.a_inf.norm2() == pytest.approx(0.0, abs=1e-14)
        for mid in frame.tangent:
            assert mid.norm2() == pytest.approx(1.0, abs=1e-10)


def test_sample_grid_is_cell_centered(torus):
    grid = torus.sample_grid((4, 5))
    assert grid.shape == (20, 2)
    lo = np.array([d[0] for d in torus.domain])
    hi = np.array([d[1] for d in torus.domain])
    assert np.all(grid > lo) and np.all(grid < hi)
    # first cell center sits half a step in
    steps = (hi - lo) / np.array([4, 5])
    assert np.allclose(grid[0], lo + steps / 2.0)


@pytest.mark.parametrize("m", [5, 24])
def test_family_samples_are_cell_centered(tmp_path, m):
    # causal samples and the singular CSV's t column share the surface sampler
    params = {"major": 2.0, "rho": 0.5}
    fam = make_family("circle-tube", params)
    ts = cell_centers(fam.domain, m)[:, 0]
    rep = causal_classify_family(fam, counts=m)
    assert [s.t[0] for s in rep.samples] == ts.tolist()

    scene = {
        "version": 1,
        "grids": {"singular_samples": m},
        "families": [
            {"name": "circle-tube", "label": "tube", "params": params, "analyses": ["singularities"]}
        ],
    }
    run_scene(load_scene(scene), tmp_path)
    rows = (tmp_path / "tube-0_singular.csv").read_text().splitlines()[1:]
    assert [row.split(",")[0] for row in rows] == [format_number(t) for t in ts]


@pytest.mark.parametrize("counts", [0, -2])
def test_zero_sample_counts_raise(counts):
    # an empty grid must not yield a verdict from no samples
    fam = make_family("circle-tube", {"major": 2.0, "rho": 0.5})
    with pytest.raises(DomainError, match="at least 1"):
        causal_classify_family(fam, counts=counts)
    torus = make_surface("torus", {"major": 2.0, "minor": 1.0})
    with pytest.raises(DomainError, match="at least 1"):
        detect_canal(torus, counts=counts)


@pytest.mark.parametrize("counts", [2.9, 3.5, math.nan, math.inf, [3, 2.5]])
def test_fractional_or_infinite_sample_counts_raise(counts):
    # a count is not truncated to an integer: 2.9 would quietly sample 2 cells per axis
    fam = make_family("circle-tube", {"major": 2.0, "rho": 0.5})
    with pytest.raises(DomainError, match="whole numbers"):
        causal_classify_family(fam, counts=counts)
    torus = make_surface("torus", {"major": 2.0, "minor": 1.0})
    with pytest.raises(DomainError, match="whole numbers"):
        detect_canal(torus, counts=counts)


def test_integral_sample_counts_of_any_type_are_accepted():
    torus = make_surface("torus", {"major": 2.0, "minor": 1.0})
    reports = [detect_canal(torus, counts=c) for c in (2, np.int64(2), 2.0, [2, np.int32(2)])]
    assert all(r.to_json() == reports[0].to_json() for r in reports)
    assert len(cell_centers(torus.domain, [np.int64(3), 2])) == 6


# each count fails before anything is allocated; no count that would allocate is tried
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "call, named",
    [
        (
            lambda: detect_canal(make_surface("torus", {}), counts=1e20),
            "grid cell counts [100000000000000000000, 100000000000000000000]",
        ),
        (
            lambda: causal_classify_family(make_family("circle-tube", {}), counts=2**62),
            "grid cell counts [4611686018427387904]",
        ),
        (
            lambda: envelope_mesh(make_family("circle-tube", {}), t_count=-3),
            "(t_count, angle_count) must be at least 1, got [-3, 64]",
        ),
        (
            lambda: envelope_mesh(make_family("circle-tube", {}), angle_count=2.5),
            "(t_count, angle_count) must be whole numbers, got [256.0, 2.5]",
        ),
        (
            lambda: envelope_mesh(make_family("circle-tube", {}), t_count=4, angle_count=0),
            "(t_count, angle_count) must be at least 1, got [4, 0]",
        ),
        (
            # 2**61 vertices: 2**20 t values, 2**20 polar angles and 2**21 azimuths
            lambda: envelope_mesh(make_family("r4-circle", None), 2**20, 2**21),
            "(t_count, angle_count) [1048576, 2097152] make a grid too large for an array",
        ),
    ],
    ids=[
        "detect-1e20", "causal-2**62", "mesh-t-3", "mesh-angle-2.5", "mesh-angle-0", "mesh-r4-2**61"
    ],
)
def test_grid_counts_fail_with_a_domain_error_that_names_them(call, named):
    with pytest.raises(DomainError, match=re.escape(named)):
        call()


def test_graph_surface_round_trip():
    xs = np.linspace(-1.0, 1.0, 41)
    ys = np.linspace(-1.0, 1.0, 41)
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    Z = 0.5 * (X**2 - Y**2)
    surf = graph_surface(xs, ys, Z, name="saddle")
    jet = evaluate_jet(surf, np.array([0.0, 0.0]))
    assert np.allclose(jet.p, [0.0, 0.0, 0.0], atol=1e-10)
    _, h = fundamental_forms(jet)
    ev = np.linalg.eigvalsh(h)
    assert np.allclose(np.abs(ev), [1.0, 1.0], atol=1e-6)
    assert float(ev.sum()) == pytest.approx(0.0, abs=1e-6)


def test_graph_surface_without_scipy_names_the_extra(monkeypatch):
    # SciPy is the optional ``graph`` extra; a cached submodule would bypass
    # the blocked parent, so block both
    monkeypatch.setitem(sys.modules, "scipy", None)
    monkeypatch.setitem(sys.modules, "scipy.interpolate", None)
    xs = np.linspace(-1.0, 1.0, 8)
    with pytest.raises(CanalGeoError, match=re.escape("canalgeo[graph]")):
        graph_surface(xs, xs, np.zeros((8, 8)))


def test_transform_chart_independent_of_batch_size(torus):
    rng = np.random.default_rng(5)
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    moved = transform_surface(
        torus,
        param_rot=np.array([[1.0, 0.0], [1.0 / 3.0, 1.0]]),
        param_shift=np.array([0.1, -0.2]),
        ambient_rot=q,
        ambient_shift=np.array([1.0, -2.0, 0.5]),
    )
    pts = rng.random((300, 2)) * 2 * np.pi
    whole = moved.chart(pts)
    assert whole.shape == (300, 3)
    assert np.array_equal(whole, np.array([moved.chart(p) for p in pts]))
    for size in (2, 7, 64):
        chunks = [moved.chart(pts[i : i + size]) for i in range(0, len(pts), size)]
        assert np.array_equal(np.concatenate(chunks), whole)


# ---------------------------------------------------------------------------
# finite-difference jets: one batched chart call against single-point stencils


def _single_point_d2(chart, u, h):
    """Central second differences, one chart call per stencil point."""
    k = u.size
    p0 = chart(u)
    d2 = np.empty((k, k, p0.size))
    for a in range(k):
        ea = np.zeros(k)
        ea[a] = h
        d2[a, a] = (chart(u + ea) - 2 * p0 + chart(u - ea)) / (h * h)
        for b in range(a + 1, k):
            eb = np.zeros(k)
            eb[b] = h
            val = (
                chart(u + ea + eb) - chart(u + ea - eb) - chart(u - ea + eb) + chart(u - ea - eb)
            ) / (4 * h * h)
            d2[a, b] = d2[b, a] = val
    return d2


def _single_point_fd_jet(surface, u):
    k = surface.n_params
    h = FD_STEP * surface.domain_scale()
    h3 = FD_STEP3 * surface.domain_scale()
    chart = surface.chart
    d1 = np.empty((k, surface.dim_n))
    d3 = np.empty((k, k, k, surface.dim_n))
    for a in range(k):
        e = np.zeros(k)
        e[a] = h
        d1[a] = (chart(u + e) - chart(u - e)) / (2 * h)
        e3 = np.zeros(k)
        e3[a] = h3
        d3[:, :, a] = (_single_point_d2(chart, u + e3, h) - _single_point_d2(chart, u - e3, h)) / (
            2 * h3
        )
    return chart(u), d1, _single_point_d2(chart, u, h), _symmetrize3(d3)


def _dented(dim_n):
    t, th = sp.symbols("t th", real=True)
    dent = sp.Rational(1, 20) * sp.sin(3 * t + sp.Rational(3, 10)) * sp.cos(2 * th)
    surface, _ = planar_canal_surface(
        2 * sp.cos(t) + sp.Rational(1, 4) * sp.cos(2 * t),
        2 * sp.sin(t),
        sp.Rational(2, 5) + sp.sin(t) / 10,
        t_sym=t,
        dim_n=dim_n,
        t_domain=(0.0, 2 * math.pi),
        perturbation=dent if dim_n == 3 else None,
    )
    return surface


def _graph():
    xs, ys = np.linspace(-1.0, 1.0, 12), np.linspace(-1.2, 1.0, 10)
    heights = np.sin(2 * xs)[:, None] * np.cos(ys)[None, :] + 0.3 * xs[:, None] ** 2
    return graph_surface(xs, ys, heights)


def _moved(name, **motion):
    surface = make_surface(name)
    rot, _ = np.linalg.qr(np.random.default_rng(3).standard_normal((surface.dim_n,) * 2))
    return transform_surface(surface, ambient_rot=rot, **motion)


_FD_CHARTS = {
    "torus": lambda: make_surface("torus"),
    "tube4": lambda: make_surface("tube4"),
    "dented3": lambda: _dented(3),
    "planar4": lambda: _dented(4),
    "envelope3": lambda: envelope_surface(make_family("wobble-tube")),
    "envelope4": lambda: envelope_surface(make_family("r4-circle")),
    "graph": _graph,
    "moved-torus": lambda: _moved("torus", ambient_shift=[1.0, -2.0, 0.5]),
    "sheared-tube4": lambda: _moved("tube4", param_rot=np.eye(3) + np.tri(3, k=-1) / 3),
}


@pytest.mark.parametrize("name", list(_FD_CHARTS))
def test_fd_jet_is_single_point_stencil_in_one_chart_call(name):
    surface = _FD_CHARTS[name]().without_analytic_jet()
    calls = []

    def counted(u):
        calls.append(u)
        return surface.chart(u)

    batched = dataclasses.replace(surface, chart=counted)
    box = surface.domain if surface.domain is not None else np.array([[0.5, 2.0]] * surface.n_params)
    rng = np.random.default_rng(17)
    for u in box[:, 0] + (box[:, 1] - box[:, 0]) * (0.05 + 0.9 * rng.random((4, box.shape[0]))):
        calls.clear()
        jet = evaluate_jet(batched, u)
        assert len(calls) == 1
        want = _single_point_fd_jet(surface, u)
        for got, ref in zip((jet.p, jet.d1, jet.d2, jet.d3), want):
            assert np.array_equal(got, ref)
