"""End-to-end acceptance suite: one test per numbered criterion.

Each test prints a single ``[criterion NN] PASS/FAIL`` line (visible with
``pytest -s``; pytest -v adds its own PASSED/FAILED verdict per test) and
enforces the stated tolerances and runtime caps.  Oracles are recomputed
inside this file wherever the criterion demands an independent check.
"""

import math
import re
import time
from itertools import combinations_with_replacement, permutations

import numpy as np
import pytest
import sympy as sp

from canalgeo import (
    PencilKind,
    adapted_frame_coefficients,
    build_tensors,
    classify_pencil,
    classify_tube_plane,
    contact_spheres,
    detect_canal,
    evaluate_jet,
    focal_determinant,
    lift_sphere,
    make_surface,
    rank_drop_singular_points,
    singular_set,
    third_order_in_principal_frame,
)
from canalgeo.canal import principal_spectrum
from canalgeo.catalog import planar_canal_surface
from canalgeo.envelope import causal_classify_family, envelope_surface
from canalgeo.focal import FocalCoefficients
from canalgeo.scene import load_scene, run_scene


def _verdict(num: int, ok: bool, detail: str) -> None:
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} — {detail}", flush=True)
    assert ok, f"criterion {num:02d}: {detail}"


def _catalog_surfaces():
    return [
        make_surface("sphere", {"radius": 1.5}),
        make_surface("plane"),
        make_surface("cylinder", {"radius": 1.0}),
        make_surface("torus", {"major": 2.0, "minor": 1.0}),
        make_surface("ellipsoid", {"a": 3.0, "b": 2.0, "c": 1.0}),
        make_surface("tube4", {"major": 2.0, "minor": 0.5}),
    ]


def _catalog_samples(total=1000, seed=1):
    """Deterministic random parameter samples across the surface catalog."""
    surfaces = _catalog_surfaces()
    rng = np.random.default_rng(seed)
    per = total // len(surfaces) + 1
    out = []
    n = 0
    for surf in surfaces:
        lo, hi = surf.domain[:, 0], surf.domain[:, 1]
        pts = lo + (hi - lo) * rng.random((per, surf.domain.shape[0]))
        take = min(per, total - n)
        out.append((surf, pts[:take]))
        n += take
    return out


# ---------------------------------------------------------------------------


def test_criterion_01_apolarity():
    start = time.monotonic()
    worst2 = worst3 = 0.0
    count = 0
    batches = _catalog_samples()
    for surf, pts in batches:
        for u in pts:
            tens = build_tensors(evaluate_jet(surf, u))
            worst2 = max(worst2, abs(float(np.trace(tens.a))))
            if tens.a3 is not None:
                worst3 = max(worst3, float(np.abs(np.einsum("iik->k", tens.a3)).max()))
            count += 1

    worst2_fd = worst3_fd = 0.0
    for surf, pts in batches:
        fd_surf = surf.without_analytic_jet()
        for u in pts:
            tens = build_tensors(evaluate_jet(fd_surf, u))
            worst2_fd = max(worst2_fd, abs(float(np.trace(tens.a))))
            if tens.a3 is not None:
                worst3_fd = max(worst3_fd, float(np.abs(np.einsum("iik->k", tens.a3)).max()))
    elapsed = time.monotonic() - start

    ok = (
        count == 1000
        and worst2 < 1e-9
        and worst3 < 1e-7
        and worst2_fd < 1e-5
        and worst3_fd < 1e-4
        and elapsed < 10.0
    )
    _verdict(
        1,
        ok,
        f"analytic traces {worst2:.2e}/{worst3:.2e}, fd traces "
        f"{worst2_fd:.2e}/{worst3_fd:.2e} on {count} points in {elapsed:.2f}s",
    )


def test_criterion_02_symmetry():
    worst = 0.0
    count = 0
    for surf, pts in _catalog_samples():
        for u in pts:
            lam3 = build_tensors(evaluate_jet(surf, u)).lam3
            for perm in permutations(range(3)):
                worst = max(worst, float(np.abs(lam3 - np.transpose(lam3, perm)).max()))
            count += 1
    ok = count == 1000 and worst < 1e-7
    _verdict(2, ok, f"max permutation residual {worst:.2e} on {count} points")


def test_criterion_03_dupin_reproduction():
    start = time.monotonic()
    torus = make_surface("torus", {"major": 2.0, "minor": 1.0})
    cylinder = make_surface("cylinder", {"radius": 1.0})
    ellipsoid = make_surface("ellipsoid", {"a": 3.0, "b": 2.0, "c": 1.0})

    rep_t = detect_canal(torus, counts=20)
    rep_c = detect_canal(cylinder, counts=20)
    rep_e = detect_canal(ellipsoid, counts=20)

    # per-sample cubic witness on the ellipsoid: the largest pure third-order
    # component over principal directions, smallest over the 20x20 grid
    floor = math.inf
    for u in ellipsoid.sample_grid(20):
        tens = build_tensors(evaluate_jet(ellipsoid, u))
        if tens.a3 is None:
            continue
        spec = principal_spectrum(tens)
        a3p = third_order_in_principal_frame(tens, spec)
        norm = 1.0 + float(np.linalg.norm(a3p))
        floor = min(floor, max(abs(a3p[i, i, i]) / norm for i in range(3 - 1)))
    elapsed = time.monotonic() - start

    ok = (
        rep_t.dupin is True
        and rep_t.dupin_metric < 1e-6
        and rep_c.dupin is True
        and rep_c.dupin_metric < 1e-6
        and rep_e.dupin is False
        and floor > 1e-2
        and elapsed < 5.0
    )
    _verdict(
        3,
        ok,
        f"torus {rep_t.dupin_metric:.2e}, cylinder {rep_c.dupin_metric:.2e}, "
        f"ellipsoid floor {floor:.3f} in {elapsed:.2f}s",
    )


def test_criterion_04_r4_round_trip(fourier_families):
    rng = np.random.default_rng(404)
    worst_fraction = 1.0
    worst_center = worst_radius = 0.0
    for k in range(10):
        fam = fourier_families(rng, 4, name=f"w4_{k}")
        surf = envelope_surface(fam)
        rep = detect_canal(surf, counts=4)
        mult2 = [c for c in rep.clusters if c.multiplicity == 2]
        assert rep.signature is not None and len(mult2) == 1, f"family {k}: no multiplicity-2 cluster"
        fraction = rep.signature_fraction * (1.0 - rep.umbilic_fraction)
        worst_fraction = min(worst_fraction, fraction)

        for u in surf.sample_grid(2):
            jet = evaluate_jet(surf, u)
            tens = build_tensors(jet)
            spec = principal_spectrum(tens)
            cs = [s for s in contact_spheres(jet, tens, spec) if s.multiplicity == 2]
            assert cs, f"family {k}: no multiplicity-2 contact sphere at {u}"
            fj = fam.jet_at([u[0]])
            worst_center = max(worst_center, float(np.linalg.norm(cs[0].sphere.center - fj.c)))
            worst_radius = max(worst_radius, abs(cs[0].sphere.radius - float(fj.rho)))

    ok = worst_fraction >= 0.99 and worst_center < 1e-4 and worst_radius < 1e-4
    _verdict(
        4,
        ok,
        f"cluster persistence ≥ {worst_fraction:.4f}, contact sphere errors "
        f"center {worst_center:.2e} radius {worst_radius:.2e} over 10 R^4 families",
    )


def test_criterion_05_r3_round_trip(fourier_families):
    rng = np.random.default_rng(101)
    worst_canal = 0.0
    for k in range(10):
        fam = fourier_families(rng, 3, name=f"w3_{k}")
        rep = detect_canal(envelope_surface(fam), counts=8)
        metrics = [c.metric for c in rep.clusters if c.mechanism == "third-order"]
        assert metrics, f"family {k}: no third-order verdicts"
        worst_canal = max(worst_canal, min(metrics))

    rng = np.random.default_rng(2026)
    t, th = sp.symbols("t th", real=True)
    worst_dent = math.inf
    for k in range(10):
        b = 2.0 + 0.3 * rng.random()
        a2 = 0.1 * rng.standard_normal(2)
        rho = 0.3 + 0.1 * rng.random()
        amp = 0.05 + 0.03 * rng.random()
        f1 = int(rng.integers(2, 4))
        f2 = int(rng.integers(1, 3))
        ph1, ph2 = 2 * np.pi * rng.random(2)
        surf, _ = planar_canal_surface(
            b * sp.cos(t) + a2[0] * sp.cos(2 * t),
            b * sp.sin(t) + a2[1] * sp.sin(2 * t),
            sp.Float(rho),
            t_sym=t,
            dim_n=3,
            t_domain=(0.0, 2 * np.pi),
            perturbation=sp.Float(amp) * sp.sin(f1 * t + sp.Float(ph1)) * sp.cos(f2 * th + sp.Float(ph2)),
            name=f"dent{k}",
        )
        rep = detect_canal(surf, counts=10)
        metrics = [c.metric for c in rep.clusters if c.metric is not None]
        assert metrics, f"dent {k}: no third-order verdicts"
        worst_dent = min(worst_dent, min(metrics))

    ok = worst_canal < 1e-4 and worst_dent > 1e-2
    _verdict(
        5,
        ok,
        f"canal-direction cubic ≤ {worst_canal:.2e} on 10 envelopes; "
        f"perturbed floor {worst_dent:.2e} on 10 dented tubes",
    )


def test_criterion_06_causal_classifier(fourier_families):
    rng = np.random.default_rng(606)
    checked = in_band = 0
    kinds = {"spacelike": 0, "timelike": 0}
    for k in range(100):
        ramp = float(7.0 * rng.random() - 3.5)
        fam = fourier_families(rng, 3, name=f"c{k}", rho0=0.5 + abs(ramp), ramp=ramp)
        rep = causal_classify_family(fam, counts=48)
        for s in rep.samples:
            fj = fam.jet_at(list(s.t))
            euclid = float(fj.dc[0] @ fj.dc[0]) - float(fj.drho[0]) ** 2
            scale = float(fj.dc[0] @ fj.dc[0]) + float(fj.drho[0]) ** 2
            if abs(euclid) <= 1e-9 * scale:
                in_band += 1
                continue
            want = "spacelike" if euclid > 0 else "timelike"
            assert s.kind == want, f"family {k} at t={s.t}: {s.kind} vs euclidean {want}"
            kinds[want] += 1
            checked += 1
    ok = checked + in_band == 4800 and kinds["spacelike"] > 0 and kinds["timelike"] > 0
    _verdict(
        6,
        ok,
        f"{checked} pointwise sign agreements ({kinds['spacelike']} spacelike, "
        f"{kinds['timelike']} timelike), {in_band} samples inside the lightcone band",
    )


def _monomials(dim, degree):
    out = []
    for d in range(degree + 1):
        out.extend(combinations_with_replacement(range(dim), d))
    return out


def test_criterion_07_focal_degree():
    rng = np.random.default_rng(7)
    m = 2
    for r in (1, 2, 3):
        co = FocalCoefficients(
            r=r,
            lam_pq=np.eye(r) + 0.1 * rng.standard_normal((r, r)),
            lam_apq=rng.standard_normal((m, r, r)),
            c_pq=rng.standard_normal((r, r)),
        )

        # multivariate interpolation: a total-degree-r polynomial in the
        # m + 2 generator coordinates reproduces the determinant exactly,
        # a degree-(r-1) one cannot
        pts = rng.standard_normal((200, m + 2))
        vals = np.array([focal_determinant(co, x) for x in pts])
        scale = float(np.abs(vals).max())

        monos = _monomials(m + 2, r)
        van = np.stack([np.prod(pts[:, list(mo)], axis=1) for mo in monos], axis=-1)
        coef, _, _, _ = np.linalg.lstsq(van, vals, rcond=None)
        resid_r = float(np.abs(van @ coef - vals).max())

        top = [abs(c) for mo, c in zip(monos, coef) if len(mo) == r]
        monos_low = _monomials(m + 2, r - 1)
        van_low = np.stack([np.prod(pts[:, list(mo)], axis=1) for mo in monos_low], axis=-1)
        coef_low, _, _, _ = np.linalg.lstsq(van_low, vals, rcond=None)
        resid_low = float(np.abs(van_low @ coef_low - vals).max())

        assert resid_r < 1e-9 * scale, f"r={r}: degree-{r} fit residual {resid_r:.2e}"
        assert max(top) > 1e-6 * scale, f"r={r}: top-degree part vanished"
        assert resid_low > 1e-3 * scale, f"r={r}: degree-{r - 1} fit should fail"

        # homogeneity pins the degree pointwise as well
        x = rng.standard_normal(m + 2)
        for s in (0.5, -2.0):
            assert focal_determinant(co, s * x) == pytest.approx(
                s**r * focal_determinant(co, x), rel=1e-10
            )

    # r = 1 specialization: evaluating on the coordinate basis returns the
    # structure coefficients themselves, bit for bit
    lam212, lam313, c22 = 0.73, -1.21, 0.4375
    co1 = FocalCoefficients(
        r=1,
        lam_pq=np.array([[1.0]]),
        lam_apq=np.array([[[lam212]], [[lam313]]]),
        c_pq=np.array([[c22]]),
    )
    basis = np.eye(4)
    got = [focal_determinant(co1, e) for e in basis]
    identical = got == [1.0, lam212, lam313, c22]
    assert identical, f"r=1 coefficient extraction {got}"
    _verdict(7, True, "degree certified exactly r for r=1,2,3; r=1 coefficients identical")


def test_criterion_08_singularity_oracle(fourier_families):
    start = time.monotonic()
    rng = np.random.default_rng(808)
    agree = total = 0
    worst_loc = 0.0
    off_band_mismatch = []
    for k in range(20):
        fat = bool(k % 2)
        fam = fourier_families(rng, 3, name=f"s{k}", rho0=(2.6 if fat else None))
        lo, hi = fam.domain[0]
        step = (hi - lo) / 50
        for t in lo + step * (np.arange(50) + 0.5):
            rep = singular_set(adapted_frame_coefficients(fam, float(t)))
            oracle = rank_drop_singular_points(fam, float(t))
            total += 1
            if rep.count == oracle.count:
                agree += 1
                if rep.count:
                    fast = np.array([p.point for p in rep.points])
                    slow = np.asarray(oracle.points)
                    for row in fast:
                        worst_loc = max(
                            worst_loc, float(np.linalg.norm(slow - row, axis=1).min())
                        )
            elif abs(rep.discriminant) > rep.band:
                off_band_mismatch.append((k, float(t), rep.count, oracle.count))
    elapsed = time.monotonic() - start

    rate = agree / total
    ok = (
        total == 1000
        and rate >= 0.98
        and not off_band_mismatch
        and worst_loc < 1e-3
        and elapsed < 60.0
    )
    _verdict(
        8,
        ok,
        f"count agreement {agree}/{total} ({rate:.1%}), worst location gap "
        f"{worst_loc:.2e}, off-band mismatches {off_band_mismatch}, {elapsed:.1f}s",
    )


def test_criterion_09_pencil_trichotomy():
    rng = np.random.default_rng(909)
    band = 1e-9
    cases = []
    while len(cases) < 94:
        c1 = 3.0 * rng.standard_normal(3)
        c2 = 3.0 * rng.standard_normal(3)
        r1, r2 = np.exp(0.7 * rng.standard_normal(2))
        cases.append((c1, r1, c2, r2))
    # deliberate tangencies and a nested concentric pair
    cases.append((np.zeros(3), 1.0, np.array([3.0, 0.0, 0.0]), 2.0))   # external
    cases.append((np.zeros(3), 3.0, np.array([1.0, 0.0, 0.0]), 2.0))   # internal
    cases.append((np.zeros(3), 1.0, np.array([2.5, 0.0, 0.0]), 1.5))   # external
    cases.append((np.zeros(3), 2.0, np.zeros(3), 1.0))                 # concentric
    cases.append((np.zeros(3), 1.0, np.array([0.2, 0.0, 0.0]), 0.5))   # nested
    cases.append((np.zeros(3), 1.0, np.array([4.0, 0.0, 0.0]), 1.0))   # disjoint

    checked = 0
    for c1, r1, c2, r2 in cases:
        d = float(np.linalg.norm(np.asarray(c1) - np.asarray(c2)))
        iota = (r1 * r1 + r2 * r2 - d * d) / (2.0 * r1 * r2)
        cls = classify_pencil(lift_sphere(c1, r1), lift_sphere(c2, r2))
        if abs(abs(iota) - 1.0) <= band * max(1.0, abs(iota)):
            want = PencilKind.PARABOLIC       # geometric tangency
        elif abs(iota) < 1.0:
            want = PencilKind.ELLIPTIC        # transversal intersection circle
        else:
            want = PencilKind.HYPERBOLIC      # disjoint or nested
        assert cls.kind is want, (
            f"spheres d={d:.6f} r=({r1:.4f},{r2:.4f}): {cls.kind} vs geometric {want}"
        )
        checked += 1
    ok = checked == 100
    _verdict(9, ok, f"{checked} pencil verdicts match the geometric oracle")


def test_criterion_10_plane_classification():
    # independent restricted-form signature: the quadratic form written out
    # longhand, inertia via eigendecomposition of the 3x3 Gram matrix
    g = np.zeros((5, 5))
    g[1, 1] = g[2, 2] = g[3, 3] = 1.0
    g[0, 4] = g[4, 0] = -1.0

    def independent_kind(rows):
        gram = rows @ g @ rows.T
        gram = 0.5 * (gram + gram.T)
        ev = np.linalg.eigvalsh(gram)
        band = 1e-9 * max(float(np.max(np.abs(ev))), 1e-300)
        n_neg = int(np.sum(ev < -band))
        n_zero = int(np.sum(np.abs(ev) <= band))
        if n_zero:
            return "one_singular_point"
        return "smooth_tube" if n_neg == 1 else "selfintersecting_tube"

    e = np.eye(5)
    worked = [
        ([e[1], e[2], e[3]], "selfintersecting_tube"),
        ([e[0], e[4], e[1]], "smooth_tube"),
        ([e[0], e[1], e[2]], "one_singular_point"),
    ]
    for rows, want in worked:
        rows = np.stack(rows)
        assert classify_tube_plane(rows).kind == want
        assert independent_kind(rows) == want

    rng = np.random.default_rng(1010)
    checked = 0
    while checked < 100:
        rows = rng.standard_normal((3, 5))
        if np.linalg.svd(rows, compute_uv=False)[-1] < 1e-6:
            continue
        assert classify_tube_plane(rows).kind == independent_kind(rows)
        checked += 1
    _verdict(10, True, f"3 worked spans + {checked} random planes agree with eigendecomposition")


def test_criterion_11_determinism(tmp_path):
    scene = {
        "version": 1,
        "grids": {"mesh_t": 96, "mesh_angle": 24},
        "surfaces": [
            {"name": "torus", "params": {"major": 2.0, "minor": 1.0}, "analyses": ["canal-detect", "dupin"]},
            {"name": "cylinder", "analyses": ["canal-detect", "dupin"]},
            {"name": "ellipsoid", "analyses": ["canal-detect"]},
            {"name": "sphere", "analyses": ["canal-detect"]},
        ],
        "families": [
            {"name": "circle-tube", "label": "thin", "params": {"major": 2.0, "rho": 0.5},
             "analyses": ["causal", "envelope", "singularities"]},
            {"name": "circle-tube", "label": "fat", "params": {"major": 1.0, "rho": 2.0},
             "analyses": ["causal", "singularities"]},
            {"name": "helix-tube", "analyses": ["causal", "envelope"]},
            {"name": "line-cone", "analyses": ["causal", "singularities"]},
            {"name": "r4-circle", "analyses": ["causal", "envelope"]},
        ],
        "pencils": [
            {"spheres": [{"center": [0, 0, 0], "radius": 2.0}, {"center": [1, 0, 0], "radius": 2.0}]},
            {"spheres": [{"center": [0, 0, 0], "radius": 1.0}, {"center": [3, 0, 0], "radius": 1.0}]},
            {"spheres": [{"center": [0, 0, 0], "radius": 1.0}, {"center": [2, 0, 0], "radius": 1.0}]},
        ],
        "planes": [
            {"vectors": [[0, 1, 0, 0, 0], [0, 0, 1, 0, 0], [0, 0, 0, 1, 0]]},
            {"vectors": [[1, 0, 0, 0, 0], [0, 0, 0, 0, 1], [0, 1, 0, 0, 0]]},
            {"vectors": [[1, 0, 0, 0, 0], [0, 1, 0, 0, 0], [0, 0, 1, 0, 0]]},
        ],
    }
    spec = load_scene(scene)
    d1, d2 = tmp_path / "run1", tmp_path / "run2"
    rep1, written1, code1 = run_scene(spec, d1)
    rep2, written2, code2 = run_scene(spec, d2)
    assert code1 == 0 and code2 == 0
    assert rep1["error_count"] == 0 and rep2["error_count"] == 0

    names1 = sorted(p.rsplit("/", 1)[-1] for p in written1)
    names2 = sorted(p.rsplit("/", 1)[-1] for p in written2)
    assert names1 == names2

    differing = []
    for name in names1:
        t1 = (d1 / name).read_bytes()
        t2 = (d2 / name).read_bytes()
        if name == "report.json":
            strip = lambda s: re.sub(rb'^\s*"timestamp": .*\n', b"", s, flags=re.M)
            t1, t2 = strip(t1), strip(t2)
        if t1 != t2:
            differing.append(name)
    ok = not differing
    _verdict(
        11,
        ok,
        f"{len(names1)} files byte-identical between two runs"
        + (f"; differing: {differing}" if differing else ""),
    )
