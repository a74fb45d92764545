"""Batched jets, frames, tensor ladders and family jets against single-point calls.

Every kernel takes a leading point axis, and a single point is a batch of
one.  A row of a batch must therefore come out as that point alone: within
1e-13 of each order's largest entry, and bit for bit where the kernel is a
stacked LAPACK call (QR, det, eigh) fed the same data.
"""

import dataclasses
import math
import warnings

import numpy as np
import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from canalgeo import (
    CanalGeoError,
    DomainError,
    ImmersionError,
    ParametricSurface,
    adapted_frame_coefficients,
    adapted_frames,
    build_tensors,
    causal_classify_family,
    detect_canal,
    evaluate_jet,
    evaluate_jets,
    family_from_expressions,
    graph_surface,
    make_family,
    make_surface,
    planar_canal_surface,
    principal_spectrum,
    sampled_family,
    singular_set,
    surface_from_expressions,
    transform_surface,
)
from canalgeo import jets as jets_module
from canalgeo.canal import _ladder, _spectra
from canalgeo.config import DEFAULT_TOLERANCES
from canalgeo.envelope import batched_jet
from canalgeo.focal import _adapted_rows
from canalgeo.taylor import jet_function, sqrt

REL = 1e-13


def _dented():
    t, th = sp.symbols("t th", real=True)
    dent = sp.Rational(1, 20) * sp.sin(3 * t + sp.Rational(3, 10)) * sp.cos(2 * th)
    surface, _ = planar_canal_surface(
        2 * sp.cos(t) + sp.Rational(1, 4) * sp.cos(2 * t),
        2 * sp.sin(t),
        sp.Rational(2, 5) + sp.sin(t) / 10,
        t_sym=t,
        t_domain=(0.0, 2 * math.pi),
        perturbation=dent,
    )
    return surface


def _graph():
    xs, ys = np.linspace(-1.0, 1.0, 12), np.linspace(-1.2, 1.0, 10)
    heights = np.sin(2 * xs)[:, None] * np.cos(ys)[None, :] + 0.3 * xs[:, None] ** 2
    return graph_surface(xs, ys, heights)


def _moved():
    rot, _ = np.linalg.qr(np.random.default_rng(3).standard_normal((4, 4)))
    return transform_surface(
        make_surface("tube4"),
        param_rot=np.eye(3) + np.tri(3, k=-1) / 3,
        param_shift=np.array([0.1, 0.2, -0.1]),
        ambient_rot=rot,
        ambient_shift=np.array([1.0, -2.0, 0.5, 0.0]),
    )


SURFACES = {
    **{name: (lambda name=name: make_surface(name)) for name in
       ("sphere", "plane", "cylinder", "torus", "ellipsoid", "tube4")},
    "moved-tube4": _moved,
    "graph": _graph,
    "dented": _dented,
}


def _grid(surface, count=7, seed=11):
    box = surface.domain
    if box is None:
        box = np.array([[0.5, 1.5]] * surface.n_params)
    frac = 0.05 + 0.9 * np.random.default_rng(seed).random((count, surface.n_params))
    return box[:, 0] + (box[:, 1] - box[:, 0]) * frac


def _close(got, want):
    scale = float(np.max(np.abs(want)))
    assert np.all(np.abs(np.asarray(got) - want) <= REL * scale), float(np.max(np.abs(got - want)))


@pytest.fixture(scope="module", params=list(SURFACES))
def surface(request):
    return SURFACES[request.param]()


@pytest.mark.parametrize("fd", [False, True], ids=["analytic", "fd"])
def test_evaluate_jets_match_single_points(surface, fd):
    if fd:
        surface = surface.without_analytic_jet()
    grid = _grid(surface)
    jets = evaluate_jets(surface, grid)
    assert jets.p.shape == (len(grid), surface.dim_n)
    for i, u in enumerate(grid):
        one = evaluate_jet(surface, u)
        assert np.array_equal(jets.u[i], one.u)
        for name in ("p", "d1", "d2", "d3"):
            _close(getattr(jets, name)[i], getattr(one, name))
        # stacked QR and det, fed the same derivatives
        for name in ("e", "nu", "basis_change"):
            assert np.array_equal(getattr(jets, name)[i], getattr(one, name)), name


def test_grids_beyond_one_chunk_match_single_points():
    # more points than one batched pass takes: the chunks join seamlessly
    torus = make_surface("torus")
    grid = torus.sample_grid(25)
    assert len(grid) > jets_module._JET_CHUNK
    jets = evaluate_jets(torus, grid)
    assert jets.d3.shape == (len(grid), 2, 2, 2, 3)
    for i in (0, jets_module._JET_CHUNK - 1, jets_module._JET_CHUNK, len(grid) - 1):
        one = evaluate_jet(torus, grid[i])
        for name in ("p", "d1", "d2", "d3", "e", "nu", "basis_change"):
            assert np.array_equal(getattr(jets, name)[i], getattr(one, name)), name
    assert detect_canal(torus, params=grid).is_canal


def test_tensor_ladder_matches_single_points(surface):
    grid = _grid(surface)
    tensors = _ladder(evaluate_jets(surface, grid), DEFAULT_TOLERANCES)
    eigs, vecs, _ = _spectra(tensors.h, DEFAULT_TOLERANCES)
    for i, u in enumerate(grid):
        one = build_tensors(evaluate_jet(surface, u))
        for name in ("h", "lam3", "lam1"):
            _close(getattr(tensors, name)[i], getattr(one, name))
        assert bool(tensors.umbilic[i]) == one.umbilic
        assert bool(tensors.a_singular[i]) == one.a_singular
        if one.a3 is None:
            assert np.isnan(tensors.a3[i]).all()
        else:
            _close(tensors.a3[i], one.a3)
        # the stacked eigh of a row is the eigh of that row alone
        want_eigs, want_vecs = np.linalg.eigh(tensors.h[i])
        assert np.array_equal(eigs[i], want_eigs) and np.array_equal(vecs[i], want_vecs)
        spectrum = principal_spectrum(one)
        _close(eigs[i], spectrum.eigenvalues)


@pytest.mark.parametrize("name", ["torus", "tube4"])
def test_detect_canal_takes_one_jet_call_per_grid(name):
    # analytic: one Taylor pass for the whole grid; FD: one chart call for every stencil
    source = make_surface(name)
    calls = []

    def counted(fn):
        def wrapper(u):
            calls.append(np.shape(u))
            return fn(u)

        return wrapper

    analytic = dataclasses.replace(source, jet=counted(source.jet))
    report = detect_canal(analytic, counts=5)
    assert calls == [(5**source.n_params, source.n_params)]
    assert report.to_json() == detect_canal(source, counts=5).to_json()

    calls.clear()
    fd = source.without_analytic_jet()
    detect_canal(dataclasses.replace(fd, chart=counted(fd.chart)), counts=3)
    assert len(calls) == 1


# ---------------------------------------------------------------------------
# a failing row raises what it raises alone


def _cone():
    # the v-tangent vanishes at u = 0: rank-deficient there
    u, v = sp.symbols("u v", real=True)
    return surface_from_expressions(
        [u, v], [u * sp.cos(v), u * sp.sin(v), u + sp.sqrt(1 + u)], domain=[[-1.5, 1.0], [0.0, 6.0]]
    )


def _error_of(call):
    with pytest.raises(CanalGeoError) as info:
        call()
    return type(info.value), str(info.value)


@pytest.mark.parametrize("fd", [False, True], ids=["analytic", "fd"])
@pytest.mark.parametrize(
    "rows, first",
    [
        ([[0.5, 1.0], [0.2, 2.0], [0.0, 1.0], [0.3, 4.0]], 2),  # rank-deficient row
        ([[0.5, 1.0], [0.2, 7.5], [0.0, 1.0]], 1),  # outside the domain box
        ([[0.5, 1.0], [0.0, 2.0], [0.2, 7.5]], 1),  # the earlier of two failing rows
        ([[0.5, 1.0], [-1.2, 2.0], [0.0, 1.0]], 1),  # sqrt(1 + u) undefined
    ],
)
def test_failing_row_raises_its_own_error(fd, rows, first):
    surface = _cone().without_analytic_jet() if fd else _cone()
    with np.errstate(invalid="ignore"):  # the FD stencil evaluates sqrt(1 + u) below -1
        want = _error_of(lambda: evaluate_jet(surface, rows[first]))
        for row in rows[:first]:
            evaluate_jet(surface, row)
        assert _error_of(lambda: evaluate_jets(surface, rows)) == want
        assert _error_of(lambda: detect_canal(surface, params=rows)) == want
    if not fd and first == 2:
        assert want[0] is ImmersionError


def test_jet_function_names_the_first_undefined_row():
    # the jet leaves an undefined row non-finite; the surface pass names the first
    fn = lambda u, v: [u, v, sqrt(u - v)]  # noqa: E731
    jet = jet_function(fn, 2)
    rows = np.array([[0.9, 0.1], [0.1, 0.4], [0.2, 0.5]])
    defined = np.isfinite(np.concatenate([t.reshape(3, -1) for t in jet(rows)], axis=1))
    assert defined.all(axis=1).tolist() == [True, False, False]
    surface = ParametricSurface(3, chart=None, jet=jet_function(fn, 3))  # only the jet runs
    with pytest.raises(DomainError, match=r"not differentiable at \(0\.1, 0\.4\)"):
        evaluate_jets(surface, rows)
    single = jet(np.array([0.9, 0.1]))
    batch = jet(np.array([[0.3, 0.1], [0.9, 0.1]]))
    for s, b in zip(single, batch):
        assert s.shape == b.shape[1:]
        assert np.array_equal(s, b[1])


@pytest.mark.parametrize("reverse", [False, True], ids=["rank-first", "undefined-first"])
def test_the_first_of_two_failing_rows_in_one_batch_is_raised(reverse):
    # row 0 of one order is rank-deficient, of the other not differentiable
    rows = [[0.0, 1.0], [-1.2, 2.0]]
    rows = rows[::-1] if reverse else rows
    kind, text = (DomainError, "not differentiable") if reverse else (ImmersionError, "rank")
    want = _error_of(lambda: evaluate_jet(_cone(), rows[0]))
    assert want[0] is kind and text in want[1]
    assert _error_of(lambda: evaluate_jets(_cone(), rows)) == want


def test_an_infinite_jet_row_fails_without_a_warning():
    # log(u) at u = 0: the jet's infinite terms meet zeros in the Taylor products
    u, v = sp.symbols("u v", real=True)
    surface = surface_from_expressions([u, v], [u, v, sp.log(u) + v], domain=[[-1, 1]] * 2)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(DomainError, match=r"not differentiable at \(0\.0, 0\.1\)"):
            evaluate_jets(surface, [[0.1, 0.1], [0.0, 0.1]])


def test_a_row_outside_the_box_costs_no_second_pass():
    # the callback sees the whole grid once, with the outside row at the box centre
    source = make_surface("tube4")
    grid = source.sample_grid(8)
    grid[-1] = source.domain[:, 1] + 1.0
    calls = []

    def counted(u):
        calls.append(np.shape(u))
        return source.jet(u)

    surface = dataclasses.replace(source, jet=counted)
    want = _error_of(lambda: evaluate_jet(source, grid[-1]))
    assert _error_of(lambda: evaluate_jets(surface, grid)) == want
    assert calls == [(512, 3)]


# ---------------------------------------------------------------------------
# family jets


def _sampled():
    ts = np.linspace(0.0, 2 * np.pi, 17)
    centers = np.stack([2 * np.cos(ts), np.sin(ts), 0.2 * ts], axis=1)
    return sampled_family(ts, centers, 0.4 + 0.05 * np.sin(ts))


FAMILIES = {
    **{name: (lambda name=name: make_family(name)) for name in
       ("circle-tube", "line-cone", "helix-tube", "r4-circle", "wobble-tube")},
    "sampled": _sampled,
}


@pytest.mark.parametrize("name", list(FAMILIES))
def test_family_jets_match_jet_at(name):
    fam = FAMILIES[name]()
    lo, hi = fam.domain[0]
    # past both ends too, where a sampled family's end cubics extrapolate
    ts = np.concatenate([np.linspace(lo, hi, 23), [lo - 0.1, hi + 0.1]])
    if name == "line-cone":
        ts = ts[ts > 0]
    jets = fam.jets_at(ts[:, None])
    for i, t in enumerate(ts):
        one = fam.jet_at([t])
        for field in ("c", "dc", "d2c", "drho", "d2rho"):
            assert np.array_equal(getattr(jets, field)[i], getattr(one, field)), field
        assert jets.rho[i] == one.rho


def test_single_point_providers_are_looped(fourier_families, rng):
    fam = fourier_families(rng, 4)
    calls = []
    counted = dataclasses.replace(fam, jet2=lambda t: calls.append(t) or fam.jet2(t))
    ts = np.linspace(0.1, 6.0, 9)[:, None]
    jets = counted.jets_at(ts)
    assert len(calls) == 9
    for i, t in enumerate(ts):
        assert np.array_equal(jets.dc[i], fam.jet_at(t).dc)


def test_causal_samples_match_single_samples(fourier_families, rng):
    for fam in (make_family("wobble-tube"), _sampled(), fourier_families(rng, 3)):
        grid = np.linspace(*fam.domain[0], 13)[:, None]
        whole = causal_classify_family(fam, params=grid)
        for i, row in enumerate(grid):
            (alone,) = causal_classify_family(fam, params=row[None]).samples
            assert whole.samples[i] == alone


def test_family_batch_raises_the_first_failing_rows_error():
    t = sp.Symbol("t", real=True)
    # the radius t crosses zero, and sqrt(t + 0.8) is undefined below -0.8
    fam = family_from_expressions(t, sp.cos(t), sp.sin(t), t * sp.sqrt(t + 0.8), 3, (-1.0, 1.0))
    grid = np.array([[0.5], [0.2], [-0.5], [-0.9]])
    with pytest.raises(DomainError) as alone:
        fam.jet_at(grid[2])
    assert "radius must be positive" in str(alone.value)
    with pytest.raises(DomainError) as batch:
        fam.jets_at(grid)
    assert str(batch.value) == str(alone.value)
    with pytest.raises(DomainError) as causal:
        causal_classify_family(fam, params=grid)
    assert str(causal.value) == str(alone.value)


def test_a_failing_family_row_costs_no_second_pass():
    t = sp.Symbol("t", real=True)
    fam = family_from_expressions(t, sp.cos(t), sp.sin(t), t * sp.sqrt(t + 0.8), 3, (-1.0, 1.0))
    calls = []

    @batched_jet
    def counted(ts):
        calls.append(np.shape(ts))
        return fam.jet2(ts)

    grid = np.append(np.linspace(1.0, 0.05, 47), -0.5)[:, None]  # the last radius is negative
    want = _error_of(lambda: fam.jet_at(grid[-1]))
    assert "radius must be positive" in want[1]
    assert _error_of(lambda: dataclasses.replace(fam, jet2=counted).jets_at(grid)) == want
    assert calls == [(48, 1)]


def test_family_row_record_matches_single_rows():
    t = sp.Symbol("t", real=True)
    fam = family_from_expressions(t, sp.cos(t), sp.sin(t), t * sp.sqrt(t + 0.8), 3, (-1.0, 1.0))
    grid = np.array([[0.5], [-0.5], [0.2], [-0.9]])
    jet, errors = fam._row_jets(grid)
    for i, row in enumerate(grid):
        error = errors.errors[i]
        if error is None:
            alone = fam.jet_at(row)
            for field in ("c", "dc", "d2c", "rho", "drho", "d2rho"):
                assert np.array_equal(getattr(jet, field)[i], getattr(alone, field)), field
        else:
            assert _error_of(lambda: fam.jet_at(row)) == (type(error), str(error))
    assert [e is None for e in errors.errors] == [True, False, True, False]

    # a batched provider's own raise propagates as it is
    source = make_family("circle-tube")

    @batched_jet
    def refuses_batches(ts):
        if np.ndim(ts) == 2 and len(ts) > 1:
            raise DomainError("this provider takes one row at a time")
        return source.jet2(ts)

    fam = dataclasses.replace(source, jet2=refuses_batches)
    with pytest.raises(DomainError, match="one row at a time"):
        fam.jets_at([[0.1], [0.2]])
    assert fam.jets_at([[0.1]]).c.shape == (1, 3)


# ---------------------------------------------------------------------------
# adapted frames: one pass over a t grid


def _sampled_tube(rho0):
    ts = np.linspace(0.0, 2 * np.pi, 48)
    centers = np.stack([2 * np.cos(ts), np.sin(ts), 0.3 * np.sin(2 * ts)], axis=1)
    return sampled_family(ts, centers, rho0 + 0.1 * np.sin(ts))


FRAME_FAMILIES = {
    "thin": lambda: _sampled_tube(0.3),
    "fat": lambda: _sampled_tube(1.5),
    "helix-tube": lambda: make_family("helix-tube"),
    "line-cone": lambda: make_family("line-cone"),
}


@pytest.mark.parametrize("name", list(FRAME_FAMILIES))
def test_adapted_frames_match_single_t(name):
    fam = FRAME_FAMILIES[name]()
    lo, hi = fam.domain[0]
    ts = lo + (hi - lo) * (np.arange(24) + 0.5) / 24
    batch = adapted_frames(fam, ts[:, None])
    assert len(batch) == 24
    counts = set()
    for t, row in zip(ts, batch):
        one = adapted_frame_coefficients(fam, t)
        assert row.t == one.t == t
        for field in ("lam22", "lam212", "c22", "omega_rate"):
            assert getattr(row, field) == getattr(one, field), field
        for field in ("a0", "a1", "a2", "a3", "a4", "x0", "x4", "center", "w"):
            assert np.array_equal(getattr(row.frame, field), getattr(one.frame, field)), field
        assert row.frame.angle == one.frame.angle
        assert row.frame.radius == one.frame.radius
        counts.add(singular_set(row).count)
    if name == "fat":
        assert 2 in counts  # a fat tube: circles with two singular points


def test_adapted_frames_raise_the_first_failing_rows_error():
    # radius 4 + 3 sin t against spine speed 2: not spacelike where |3 cos t| > 2
    ts = np.linspace(0.0, 2 * np.pi, 48)
    centers = np.stack([2 * np.cos(ts), 2 * np.sin(ts), 0 * ts], axis=1)
    fam = sampled_family(ts, centers, 4 + 3 * np.sin(ts))
    grid = np.array([[1.5], [1.6], [3.0], [0.1], [1.4]])
    adapted_frame_coefficients(fam, 1.5)
    with pytest.raises(DomainError) as alone:
        adapted_frame_coefficients(fam, 3.0)
    assert "not spacelike" in str(alone.value)
    with pytest.raises(DomainError) as batch:
        adapted_frames(fam, grid)
    assert str(batch.value) == str(alone.value)

    # t = 1 alone fails a later check than t = 2, and the batch still raises t = 1's error
    t = sp.Symbol("t", real=True)
    slope = 1 - sp.Rational(2, 10**13)
    cone = family_from_expressions(t, t, 0, slope * t + (t - 1) ** 2 / 10, 3, (0.5, 2.5))
    with pytest.raises(CanalGeoError) as alone:
        adapted_frame_coefficients(cone, 1.0)
    assert "degenerated to a point" in str(alone.value)
    with pytest.raises(CanalGeoError) as batch:
        adapted_frames(cone, [[0.8], [1.0], [2.0]])
    assert type(batch.value) is type(alone.value)
    assert str(batch.value) == str(alone.value)


@settings(max_examples=60, deadline=None)
@given(
    a=st.floats(4.5, 6.0),
    b=st.floats(0.5, 4.0),
    ts=st.lists(st.floats(0.0, 2 * math.pi), min_size=1, max_size=12),
)
def test_frame_record_rows_match_single_t(a, b, ts):
    # radius a + b sin t about a speed-2 circle: not spacelike where |b cos t| > 2
    knots = np.linspace(0.0, 2 * np.pi, 48)
    centers = np.stack([2 * np.cos(knots), 2 * np.sin(knots), 0 * knots], axis=1)
    fam = sampled_family(knots, centers, a + b * np.sin(knots))
    rows, errors = _adapted_rows(fam, np.array(ts)[:, None])
    for t, row, error in zip(ts, rows, errors.errors):
        if error is not None:
            assert row is None
            assert _error_of(lambda: adapted_frame_coefficients(fam, t)) == (
                type(error),
                str(error),
            )
            continue
        one = adapted_frame_coefficients(fam, t)
        for field in ("lam22", "lam212", "c22", "omega_rate"):
            assert getattr(row, field) == getattr(one, field), field
        for field in ("a0", "a1", "a2", "a3", "a4", "x0", "x4", "center", "w"):
            assert np.array_equal(getattr(row.frame, field), getattr(one.frame, field)), field
        assert (row.frame.angle, row.frame.radius) == (one.frame.angle, one.frame.radius)
    failed = [e for e in errors.errors if e is not None]
    if failed:
        assert _error_of(lambda: adapted_frames(fam, np.array(ts)[:, None])) == (
            type(failed[0]),
            str(failed[0]),
        )
    else:
        assert len(adapted_frames(fam, np.array(ts)[:, None])) == len(ts)


# ---------------------------------------------------------------------------
# explicit grids: no rows, or a non-finite row


def test_empty_explicit_grids_raise():
    # a verdict from zero samples was "canal" for a family and a ZeroDivisionError for a surface
    with pytest.raises(DomainError, match="no rows"):
        causal_classify_family(make_family("circle-tube"), params=np.empty((0, 1)))
    with pytest.raises(DomainError, match="no rows"):
        detect_canal(make_surface("torus"), params=np.empty((0, 2)))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_explicit_grids_raise(bad):
    fam = make_family("circle-tube")
    with pytest.raises(DomainError, match=r"row 0 is not finite"):
        causal_classify_family(fam, params=[[bad]])
    with pytest.raises(DomainError, match=r"row 2 is not finite"):
        causal_classify_family(fam, params=[[0.1], [0.2], [bad], [0.3]])
    torus = make_surface("torus")
    with pytest.raises(DomainError, match=r"row 1 is not finite"):
        detect_canal(torus, params=[[0.1, 0.2], [0.3, bad]])
    with pytest.raises(DomainError, match=r"row 0 is not finite"):
        evaluate_jet(torus, [bad, 0.2])
