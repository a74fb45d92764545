"""Correctness gates and failure accounting for the scene workloads.

Only verdicts that hold mathematically are checked, each against geometry
recomputed here from the scene file, never from canalgeo:

* torus and cylinder are Dupin, a triaxial ellipsoid is not, tube4 is canal;
* families whose spine speed exceeds their radius rate everywhere
  (spacelike) get the causal verdict ``canal``;
* on a tube of constant radius rho the envelope is singular exactly where
  1 - rho * kappa * cos(theta) = 0, so a characteristic circle carries two
  singular points when rho * kappa > 1 and none when rho * kappa < 1;
  thin tubes with a slowly varying radius (rho * kappa well below 1) have none;
* pencil kinds follow from the inversive product of centres and radii;
* plane kinds follow from the inertia of the restricted form;
* every envelope mesh has one vertex per grid point, in the report and in
  the OBJ file;
* generator residuals stay below 1e-9.

An operation is one scene entry or one singular-sample row.  Failed ones are
entries with an ``error`` object in report.json and CSV rows with an error
cell.  A healthy commit fails none, so any failed operation is also a gate
problem, which fails the whole repetition.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

from inputs import inversive, plane_gram

DUPIN = {"torus": True, "cylinder": True, "ellipsoid": False}
CANAL = {"tube4": True}
RESIDUAL_MAX = 1e-9
PENCIL_BAND = 1e-9
# rho * kappa this close to 1 is the transition itself; no count is expected
SINGULAR_BAND = 0.05
THIN_MAX = 0.5
DEFAULT_SINGULAR_SAMPLES = 24


def operations(scene: dict, singular_samples: int) -> int:
    entries = sum(len(scene.get(k, [])) for k in ("surfaces", "families", "pencils", "planes"))
    rows = sum(
        singular_samples
        for f in scene.get("families", [])
        if "singularities" in (f.get("analyses") or [])
    )
    return entries + rows


def _mesh_vertices(n: int, grids: dict) -> int:
    t, angle = grids["mesh_t"], grids["mesh_angle"]
    return t * angle * max(angle // 2, 4) ** (n - 3)


def _read_rows(path: Path) -> list:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class _Spine:
    """Centre/radius geometry of a scene family, where it is known here."""

    def __init__(self, entry: dict):
        self.kappa = None  # curvature of the spine as a function of t
        self.speed_margin = None  # |c'|^2 - rho'^2 as a function of t
        self.const_radius = None
        name, params = entry["name"], entry.get("params") or entry.get("data") or {}
        if name == "circle-tube":
            major = float(params.get("major", 2.0))
            self.kappa = lambda t: 1.0 / major
            self.const_radius = float(params.get("rho", 0.5))
        elif name == "sampled":
            from scipy.interpolate import CubicSpline

            c = CubicSpline(params["t"], params["centers"], bc_type="natural")
            r = CubicSpline(params["t"], params["radii"], bc_type="natural")
            self.domain = (params["t"][0], params["t"][-1])
            self.kappa = lambda t: float(
                np.linalg.norm(np.cross(c(t, 1), c(t, 2))) / np.linalg.norm(c(t, 1)) ** 3
            )
            self.speed_margin = lambda t: float(c(t, 1) @ c(t, 1) - r(t, 1) ** 2)
            radii = params["radii"]
            if all(x == radii[0] for x in radii):
                self.const_radius = float(radii[0])
            self.max_radius = float(max(radii))

    def expected_count(self, t: float):
        """Singular points expected on the circle at t, or None if unknown."""
        if self.kappa is None:
            return None
        if self.const_radius is None:
            return 0 if self.max_radius * self.kappa(t) < THIN_MAX else None
        x = self.const_radius * self.kappa(t)
        if x > 1.0 + SINGULAR_BAND:
            return 2
        if x < 1.0 - SINGULAR_BAND:
            return 0
        return None

    def spacelike(self, dense: int = 400) -> bool:
        """Spine speed exceeds the radius rate on a dense grid."""
        if self.speed_margin is None:
            return False
        return all(self.speed_margin(t) > 0 for t in np.linspace(*self.domain, dense))


# catalog families whose radius rate stays below the spine speed by
# construction (constant radius, or line-cone's slope in (0, 1))
SPACELIKE_CATALOG = {"circle-tube", "helix-tube", "r4-circle", "line-cone"}


def check_scene(scene: dict, out_dir: Path, exit_code, crashed: bool) -> dict:
    """Gate one scene run; returns attempted/failed counts, problems, values."""
    problems: list[str] = []
    report_path = out_dir / "report.json"
    report = None
    if not crashed and report_path.exists():
        report = json.loads(report_path.read_text())
    grids = (report or {}).get("provenance", {}).get("grids", {})
    samples = grids.get("singular_samples", DEFAULT_SINGULAR_SAMPLES)
    attempted = operations(scene, samples)
    if report is None:
        return {"attempted": attempted, "failed": attempted, "problems": ["no report"]}

    if exit_code != 0:
        problems.append(f"exit code {exit_code}")
    if report["error_count"] != 0:
        problems.append(f"error_count {report['error_count']}")
    failed = 0
    results = report["results"]

    for entry, res in zip(scene.get("surfaces", []), results["surfaces"]):
        if "error" in res:
            failed += 1
            continue
        rep = res["analyses"].get("canal-detect", {})
        want = DUPIN.get(entry["name"])
        if want is not None and rep.get("dupin") is not want:
            problems.append(f"{res['label']}: dupin {rep.get('dupin')}, expected {want}")
        if entry["name"] in CANAL and rep.get("is_canal") is not CANAL[entry["name"]]:
            problems.append(f"{res['label']}: canal {rep.get('is_canal')}")

    for entry, res in zip(scene.get("families", []), results["families"]):
        if "error" in res:
            # the entry's singular rows never ran either
            failed += operations({"families": [entry]}, samples)
            continue
        spine = _Spine(entry)
        an = res["analyses"]
        spacelike = entry["name"] in SPACELIKE_CATALOG or spine.spacelike()
        if "causal" in an and spacelike and an["causal"]["verdict"] != "canal":
            problems.append(f"{res['label']}: causal verdict {an['causal']['verdict']}")
        if "envelope" in an:
            env = an["envelope"]
            want = _mesh_vertices(an["causal"]["n"], grids) if "causal" in an else None
            text = (out_dir / env["file"]).read_bytes()
            in_file = text.count(b"\nv ") + text.startswith(b"v ")
            if want is not None and env["vertices"] != want:
                problems.append(f"{res['label']}: {env['vertices']} vertices, grid has {want}")
            if in_file != env["vertices"]:
                problems.append(f"{res['label']}: OBJ holds {in_file} vertices")
        if "singularities" in an:
            sing = an["singularities"]
            rows = _read_rows(out_dir / sing["file"])
            if len(rows) != samples:
                problems.append(f"{res['label']}: {len(rows)} singular rows, expected {samples}")
            for row in rows:
                if row["error"]:
                    failed += 1
                    continue
                want = spine.expected_count(float(row["t"]))
                if want is not None and int(row["count"]) != want:
                    problems.append(
                        f"{res['label']}: {row['count']} singular points at t={row['t']}, "
                        f"expected {want}"
                    )

    for entry, res in zip(scene.get("pencils", []), results["pencils"]):
        if "error" in res:
            failed += 1
            continue
        s1, s2 = entry["spheres"]
        iota = inversive(s1["center"], s1["radius"], s2["center"], s2["radius"])
        if abs(abs(iota) - 1.0) <= PENCIL_BAND * max(1.0, abs(iota)):
            want = "parabolic"
        elif abs(iota) < 1.0:
            want = "elliptic"
        else:
            want = "hyperbolic"
        got = res["analyses"]["pencil"]["kind"]
        if got != want:
            problems.append(f"{res['label']}: pencil {got}, geometry says {want}")

    for entry, res in zip(scene.get("planes", []), results["planes"]):
        if "error" in res:
            failed += 1
            continue
        ev = np.linalg.eigvalsh(plane_gram(entry["vectors"]))
        band = 1e-9 * max(float(np.max(np.abs(ev))), 1e-300)
        if np.any(np.abs(ev) <= band):
            want = "one_singular_point"
        else:
            want = "smooth_tube" if int(np.sum(ev < -band)) == 1 else "selfintersecting_tube"
        got = res["analyses"]["plane-classify"]["kind"]
        if got != want:
            problems.append(f"{res['label']}: plane {got}, inertia says {want}")

    resid = report["residuals"].get("max_generator_residual")
    if resid is not None and not resid < RESIDUAL_MAX:
        problems.append(f"max_generator_residual {resid:.3e}")

    if failed:
        problems.append(f"{failed} of {attempted} operations failed")

    files = [p for p in out_dir.iterdir() if p.is_file()]
    return {
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "values": {
            "scene.max_generator_residual": resid or 0.0,
            "scene.files_written": len(files),
            "scene.bytes_written": sum(p.stat().st_size for p in files),
        },
    }
