"""Charts, jets, adapted frames, and the shape tensor's derivative."""

import numpy as np
import pytest
import sympy as sp

from canalgeo import (
    DomainError,
    ImmersionError,
    ParametricSurface,
    build_tensors,
    causal_classify_family,
    evaluate_jet,
    fundamental_forms,
    gauge_frame,
    make_family,
    make_surface,
    principal_spectrum,
    shape_derivative,
    surface_from_expressions,
    third_order_in_principal_frame,
    transform_surface,
)
from canalgeo.jets import cell_centers
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


def test_graph_surface_round_trip():
    from canalgeo import graph_surface

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
