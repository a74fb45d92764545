"""Seeded inputs for the canalgeo benchmark.

Every generator takes the workload seed and returns plain JSON data, so the
same seed gives byte-identical input files (see ``dump``).  The program under
test only ever sees these files; all randomness lives here.

Fourier spines follow the random sphere families of the acceptance suite: a
circle of radius ~2 plus a small second harmonic in every coordinate, with a
first-harmonic swing of the radius.  Thin members (rho ~0.4) are embedded
tubes; fat members (constant rho ~1.5x the largest radius of curvature) have
two singular points on most characteristic circles.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

TWO_PI = 2.0 * math.pi
REF_SCENE = Path(__file__).with_name("scene_ref.json")

# scene-batch composition
BATCH_SURFACES = {"torus": 4, "cylinder": 3, "ellipsoid": 3, "tube4": 2}
BATCH_FAMILIES = 24  # alternating thin / fat
BATCH_FAMILY_KNOTS = 48
BATCH_PENCILS = 100
BATCH_PLANES = 100
BATCH_JOBS = 2

# verify composition
VERIFY_SURFACES = ("torus", "cylinder", "ellipsoid", "tube4")
VERIFY_ENV3 = 4
VERIFY_ENV4 = 3
VERIFY_DENTS = 2
VERIFY_SINGULAR_FAMILIES = 4  # alternating thin / fat
VERIFY_SINGULAR_SAMPLES = 16
VERIFY_CONTACT_COUNTS = 2  # contact spheres on a 2 x 2 x 2 grid per R^4 envelope


def dump(data) -> str:
    """Canonical JSON text, so equal data always gives equal bytes."""
    return json.dumps(data, indent=1, sort_keys=True) + "\n"


def _rng(seed: int, stream: str) -> np.random.Generator:
    # one independent stream per workload, so adding a workload never
    # changes the inputs of another
    return np.random.default_rng([int(seed), sum(map(ord, stream)), len(stream)])


def fourier_spine(rng, dim_n: int, rho0: float | None = None, ramp: float | None = None) -> dict:
    """Parameters of one random Fourier sphere family (see module docstring)."""
    base = 2.0 + 0.3 * rng.random()
    amp = 0.08 * rng.standard_normal((2, dim_n))
    if rho0 is None:
        rho0 = 0.35 + 0.1 * rng.random()
    if ramp is None:
        ramp = 0.04 * rng.standard_normal()
    return {
        "dim_n": dim_n,
        "base": float(base),
        "amp": amp.tolist(),
        "rho0": float(rho0),
        "ramp": float(ramp),
    }


def spine_jet(spec: dict, t: float):
    """Exact centre, radius and their first two t-derivatives at t."""
    n = spec["dim_n"]
    base, rho0, ramp = spec["base"], spec["rho0"], spec["ramp"]
    a, b = (np.asarray(row, dtype=float) for row in spec["amp"])
    c, dc, d2c = np.zeros(n), np.zeros(n), np.zeros(n)
    c[0], c[1] = base * math.cos(t), base * math.sin(t)
    dc[0], dc[1] = -base * math.sin(t), base * math.cos(t)
    d2c[0], d2c[1] = -base * math.cos(t), -base * math.sin(t)
    c2, s2 = math.cos(2 * t), math.sin(2 * t)
    c = c + a * c2 + b * s2
    dc = dc - 2 * a * s2 + 2 * b * c2
    d2c = d2c - 4 * a * c2 - 4 * b * s2
    rho = rho0 + ramp * math.sin(t)
    return c, dc, d2c, rho, ramp * math.cos(t), -ramp * math.sin(t)


def max_curvature(spec: dict, samples: int = 720) -> float:
    """Largest curvature of the spine over one period (dense sampling)."""
    best = 0.0
    for t in np.linspace(0.0, TWO_PI, samples, endpoint=False):
        _, dc, d2c, *_ = spine_jet(spec, float(t))
        speed2 = float(dc @ dc)
        perp = d2c - (float(d2c @ dc) / speed2) * dc
        best = max(best, math.sqrt(float(perp @ perp)) / speed2)
    return best


def _fat_spine(rng, dim_n: int) -> dict:
    spec = fourier_spine(rng, dim_n, ramp=0.0)
    spec["rho0"] = float(1.5 / max_curvature(spec))
    return spec


def _surface(rng, name: str) -> dict:
    """Random catalog surface, kept clear of degenerate shapes."""
    if name == "cylinder":
        params = {"radius": 0.5 + 1.5 * rng.random()}
    elif name == "ellipsoid":  # neighbouring axes differ by at least 30 %
        c = 0.5 + rng.random()
        b = c * (1.3 + 0.5 * rng.random())
        params = {"a": b * (1.3 + 0.5 * rng.random()), "b": b, "c": c}
    else:  # torus, tube4
        major = 1.5 + 1.5 * rng.random()
        params = {"major": major, "minor": major * (0.15 + 0.3 * rng.random())}
    return {"name": name, "params": {k: float(v) for k, v in params.items()}}


# ---------------------------------------------------------------------------
# scene-ref


def reference_scene() -> dict:
    """The fixed reference scene (4 surfaces, 5 families, 1 pencil)."""
    return json.loads(REF_SCENE.read_text())


# ---------------------------------------------------------------------------
# scene-batch


def _sampled_family(rng, index: int) -> dict:
    fat = bool(index % 2)
    spec = _fat_spine(rng, 3) if fat else fourier_spine(rng, 3)
    ts = np.linspace(0.0, TWO_PI, BATCH_FAMILY_KNOTS)
    centers, radii = [], []
    for t in ts:
        c, _, _, rho, _, _ = spine_jet(spec, float(t))
        centers.append(c.tolist())
        radii.append(float(rho))
    label = f"{'fat' if fat else 'thin'}{index}"
    return {
        "name": "sampled",
        "label": label,
        "data": {"t": ts.tolist(), "centers": centers, "radii": radii, "name": label},
        "analyses": ["causal", "singularities"],
    }


def _pencil_cases(rng) -> list:
    fixed = [
        ([0.0, 0.0, 0.0], 1.0, [3.0, 0.0, 0.0], 2.0),  # external tangency
        ([0.0, 0.0, 0.0], 3.0, [1.0, 0.0, 0.0], 2.0),  # internal tangency
        ([0.0, 0.0, 0.0], 1.0, [2.5, 0.0, 0.0], 1.5),  # external tangency
        ([0.0, 0.0, 0.0], 2.0, [0.0, 0.0, 0.0], 1.0),  # concentric
        ([0.0, 0.0, 0.0], 1.0, [0.2, 0.0, 0.0], 0.5),  # nested
        ([0.0, 0.0, 0.0], 1.0, [4.0, 0.0, 0.0], 1.0),  # disjoint
    ]
    cases = list(fixed)
    while len(cases) < BATCH_PENCILS:
        c1 = 3.0 * rng.standard_normal(3)
        c2 = 3.0 * rng.standard_normal(3)
        r1, r2 = np.exp(0.7 * rng.standard_normal(2))
        if abs(abs(inversive(c1, r1, c2, r2)) - 1.0) < 1e-6:
            continue  # keep random cases off the tangency band
        cases.append((c1.tolist(), float(r1), c2.tolist(), float(r2)))
    return [
        {"spheres": [{"center": list(c1), "radius": r1}, {"center": list(c2), "radius": r2}]}
        for c1, r1, c2, r2 in cases
    ]


def inversive(c1, r1, c2, r2) -> float:
    """Inversive product of two spheres from raw centre/radius geometry."""
    d2 = float(np.sum((np.asarray(c1, dtype=float) - np.asarray(c2, dtype=float)) ** 2))
    return (r1 * r1 + r2 * r2 - d2) / (2.0 * r1 * r2)


def plane_gram(vectors) -> np.ndarray:
    """Gram matrix of three R^5 vectors under the signature-(4,1) form."""
    g = np.zeros((5, 5))
    g[1, 1] = g[2, 2] = g[3, 3] = 1.0
    g[0, 4] = g[4, 0] = -1.0
    rows = np.asarray(vectors, dtype=float)
    gram = rows @ g @ rows.T
    return 0.5 * (gram + gram.T)


def _plane_cases(rng) -> list:
    e = np.eye(5)
    out = [[e[1], e[2], e[3]], [e[0], e[4], e[1]], [e[0], e[1], e[2]]]
    while len(out) < BATCH_PLANES:
        rows = rng.standard_normal((3, 5))
        ev = np.linalg.eigvalsh(plane_gram(rows))
        if np.linalg.svd(rows, compute_uv=False)[-1] < 1e-3 or np.min(np.abs(ev)) < 1e-3 * np.max(
            np.abs(ev)
        ):
            continue  # keep random planes clear of the degenerate band
        out.append(rows)
    return [{"vectors": np.asarray(rows, dtype=float).tolist()} for rows in out]


def batch_scene(seed: int) -> dict:
    """Many small, balanced entries; no envelope meshes."""
    rng = _rng(seed, "scene-batch")
    surfaces = [
        dict(_surface(rng, name), analyses=["canal-detect", "dupin"])
        for name, count in BATCH_SURFACES.items()
        for _ in range(count)
    ]
    families = [_sampled_family(rng, i) for i in range(BATCH_FAMILIES)]
    return {
        "version": 1,
        "surfaces": surfaces,
        "families": families,
        "pencils": _pencil_cases(rng),
        "planes": _plane_cases(rng),
    }


# ---------------------------------------------------------------------------
# verify


def _dent(rng, index: int) -> dict:
    return {
        "name": f"dent{index}",
        "b": float(2.0 + 0.3 * rng.random()),
        "a2": (0.1 * rng.standard_normal(2)).tolist(),
        "rho": float(0.3 + 0.1 * rng.random()),
        "amp": float(0.05 + 0.03 * rng.random()),
        "f1": int(rng.integers(2, 4)),
        "f2": int(rng.integers(1, 3)),
        "phase": (TWO_PI * rng.random(2)).tolist(),
    }


def verify_inputs(seed: int) -> dict:
    """Catalog charts, dented tubes and Fourier families for ``verify``."""
    rng = _rng(seed, "verify")
    return {
        "surfaces": [_surface(rng, name) for name in VERIFY_SURFACES],
        "dents": [_dent(rng, i) for i in range(VERIFY_DENTS)],
        "env3": [fourier_spine(rng, 3) for _ in range(VERIFY_ENV3)],
        "env4": [fourier_spine(rng, 4) for _ in range(VERIFY_ENV4)],
        "singular": [
            _fat_spine(rng, 3) if i % 2 else fourier_spine(rng, 3)
            for i in range(VERIFY_SINGULAR_FAMILIES)
        ],
        "singular_samples": VERIFY_SINGULAR_SAMPLES,
    }


def verify_operations(data: dict) -> int:
    """Library calls the verify workload makes on ``data`` when none fails."""
    charts = len(data["surfaces"]) + len(data["dents"])
    contact_points = VERIFY_CONTACT_COUNTS**3
    return (
        2 * charts  # detect_canal, analytic and finite-difference
        + 2 * len(data["env3"])  # envelope_surface + detect_canal
        + len(data["env4"]) * (2 + 4 * contact_points)  # + jet, tensors, spectrum, spheres
        + 3 * len(data["singular"]) * data["singular_samples"]  # fast path (2) + oracle
    )
