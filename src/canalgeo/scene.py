"""Scene ingestion, validation, and batch execution.

A scene is a JSON document listing surfaces, sphere families, pencils, and
sphere planes, each with requested analyses.  ``validate_scene`` checks the
document without running anything; ``run_scene`` executes all entries,
writes meshes and singular-locus files, and assembles a deterministic JSON
report: identical scenes yield byte-identical reports apart from the
timestamp field.

At width ``jobs`` > 1 the entries run in up to ``jobs`` worker processes
(never more than there are entries).  They start with the ``fork`` method
where the platform has it and the calling process runs no other Python
thread, and with ``spawn`` otherwise.  Each worker receives the scene once,
when it starts, and writes its entries' files into the output directory
itself; only result dicts and file names come back.  The report is
assembled from the results in scene order, so every output is byte-identical
at any width.  A worker that dies raises ``CanalGeoError`` naming the
entries left unfinished.
"""

from __future__ import annotations

import datetime as _dt
import json
import math
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .canal import detect_canal
from .catalog import family_catalog, make_family, make_surface, surface_catalog
from .config import DEFAULT_TOLERANCES, Tolerances
from .conformal import PolyVector, classify_pencil, lift_sphere
from .envelope import causal_classify_family, envelope_mesh
from .errors import CanalGeoError
from .focal import adapted_frame_coefficients, classify_tube_plane, singular_set
from .jets import cell_centers
from .meshio import obj_text, singular_csv_text, xyz_text

__all__ = ["SceneSpec", "validate_scene", "load_scene", "run_scene", "DEFAULT_GRIDS"]

SCENE_VERSION = 1

DEFAULT_GRIDS = {
    "surface_samples": 6,
    "family_samples": 48,
    "singular_samples": 24,
    "mesh_t": 256,
    "mesh_angle": 64,
}

_SURFACE_ANALYSES = ("canal-detect", "dupin")
_FAMILY_ANALYSES = ("causal", "envelope", "singularities")
_LABEL_RE = re.compile(r"[^A-Za-z0-9_.-]+")


@dataclass(frozen=True)
class SceneSpec:
    surfaces: tuple
    families: tuple
    pencils: tuple
    planes: tuple
    tolerances: Tolerances
    grids: dict


def _diag(entry: str, field: str, message: str) -> dict:
    return {"entry": entry, "field": field, "message": message}


def _label_for(kind: str, index: int, entry: dict) -> str:
    raw = entry.get("label") or entry.get("name") or kind
    return _LABEL_RE.sub("_", f"{raw}-{index}")


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)


def _check_analyses(entry, path, allowed, diags):
    requested = entry.get("analyses")
    if requested is None:
        return
    if not isinstance(requested, list) or not all(isinstance(a, str) for a in requested):
        diags.append(_diag(path, "analyses", "analyses must be a list of strings"))
        return
    for a in requested:
        if a not in allowed:
            diags.append(
                _diag(path, "analyses", f"unknown analysis {a!r}; allowed: {sorted(allowed)}")
            )


def validate_scene(data) -> list:
    """Schema and invariant checks; returns a list of diagnostics (empty = valid)."""
    diags: list[dict] = []
    if not isinstance(data, dict):
        return [_diag("scene", "", "scene document must be a JSON object")]

    version = data.get("version")
    if version != SCENE_VERSION:
        diags.append(
            _diag("scene", "version", f"unrecognized version {version!r}; expected {SCENE_VERSION}")
        )

    tol = data.get("tolerances", {})
    if not isinstance(tol, dict):
        diags.append(_diag("scene", "tolerances", "tolerances must be an object"))
    else:
        known = set(DEFAULT_TOLERANCES.to_json())
        for key, val in tol.items():
            if key not in known:
                diags.append(_diag("scene", f"tolerances.{key}", "unknown tolerance name"))
            elif not _is_number(val) or val <= 0:
                diags.append(_diag("scene", f"tolerances.{key}", "tolerance must be positive"))

    grids = data.get("grids", {})
    if not isinstance(grids, dict):
        diags.append(_diag("scene", "grids", "grids must be an object"))
    else:
        for key, val in grids.items():
            if key not in DEFAULT_GRIDS:
                diags.append(_diag("scene", f"grids.{key}", "unknown grid name"))
            elif not isinstance(val, int) or isinstance(val, bool) or val <= 0:
                diags.append(_diag("scene", f"grids.{key}", "grid size must be a positive integer"))

    for key in data:
        if key not in ("version", "tolerances", "grids", "surfaces", "families", "pencils", "planes"):
            diags.append(_diag("scene", key, "unknown top-level field"))

    surfaces = data.get("surfaces", [])
    if not isinstance(surfaces, list):
        diags.append(_diag("scene", "surfaces", "surfaces must be a list"))
        surfaces = []
    for i, entry in enumerate(surfaces):
        path = f"surfaces[{i}]"
        if not isinstance(entry, dict):
            diags.append(_diag(path, "", "entry must be an object"))
            continue
        name = entry.get("name")
        if not isinstance(name, str):
            diags.append(_diag(path, "name", "surface entry needs a catalog name"))
            continue
        if name not in surface_catalog():
            diags.append(_diag(path, "name", f"unknown catalog surface {name!r}"))
            continue
        _check_analyses(entry, path, _SURFACE_ANALYSES, diags)
        try:
            make_surface(name, entry.get("params") or entry.get("data"))
        except (CanalGeoError, TypeError, ValueError) as err:
            diags.append(_diag(path, "params", str(err)))

    families = data.get("families", [])
    if not isinstance(families, list):
        diags.append(_diag("scene", "families", "families must be a list"))
        families = []
    for i, entry in enumerate(families):
        path = f"families[{i}]"
        if not isinstance(entry, dict):
            diags.append(_diag(path, "", "entry must be an object"))
            continue
        name = entry.get("name")
        if not isinstance(name, str):
            diags.append(_diag(path, "name", "family entry needs a catalog name"))
            continue
        if name not in family_catalog():
            diags.append(_diag(path, "name", f"unknown catalog family {name!r}"))
            continue
        _check_analyses(entry, path, _FAMILY_ANALYSES, diags)
        params = entry.get("params") or entry.get("data")
        if name == "sampled" and isinstance(params, dict):
            radii = params.get("radii", [])
            if isinstance(radii, list) and any(
                _is_number(r) and r <= 0 for r in radii
            ):
                diags.append(_diag(path, "data.radii", "radii must be positive"))
                continue
        try:
            make_family(name, params)
        except (CanalGeoError, TypeError, ValueError) as err:
            diags.append(_diag(path, "params", str(err)))

    pencils = data.get("pencils", [])
    if not isinstance(pencils, list):
        diags.append(_diag("scene", "pencils", "pencils must be a list"))
        pencils = []
    for i, entry in enumerate(pencils):
        path = f"pencils[{i}]"
        if not isinstance(entry, dict):
            diags.append(_diag(path, "", "entry must be an object"))
            continue
        spheres = entry.get("spheres")
        if not isinstance(spheres, list) or len(spheres) != 2:
            diags.append(_diag(path, "spheres", "a pencil entry needs exactly 2 spheres"))
            continue
        for j, sph in enumerate(spheres):
            if not isinstance(sph, dict):
                diags.append(_diag(path, f"spheres[{j}]", "sphere must be an object"))
                continue
            center = sph.get("center")
            if not isinstance(center, list) or len(center) < 2 or not all(
                _is_number(c) for c in center
            ):
                diags.append(_diag(path, f"spheres[{j}].center", "center must be a numeric list"))
            radius = sph.get("radius")
            if not _is_number(radius) or radius <= 0:
                diags.append(_diag(path, f"spheres[{j}].radius", "radius must be positive"))

    planes = data.get("planes", [])
    if not isinstance(planes, list):
        diags.append(_diag("scene", "planes", "planes must be a list"))
        planes = []
    for i, entry in enumerate(planes):
        path = f"planes[{i}]"
        if not isinstance(entry, dict):
            diags.append(_diag(path, "", "entry must be an object"))
            continue
        vectors = entry.get("vectors")
        if (
            not isinstance(vectors, list)
            or len(vectors) != 3
            or not all(
                isinstance(v, list) and len(v) == 5 and all(_is_number(c) for c in v)
                for v in vectors
            )
        ):
            diags.append(
                _diag(path, "vectors", "a plane entry needs 3 vectors of 5 finite numbers")
            )

    return diags


def load_scene(data: dict) -> SceneSpec:
    """Build a SceneSpec from validated JSON data."""
    tol = DEFAULT_TOLERANCES.replace(**(data.get("tolerances") or {}))
    grids = dict(DEFAULT_GRIDS)
    grids.update(data.get("grids") or {})
    return SceneSpec(
        surfaces=tuple(data.get("surfaces", [])),
        families=tuple(data.get("families", [])),
        pencils=tuple(data.get("pencils", [])),
        planes=tuple(data.get("planes", [])),
        tolerances=tol,
        grids=grids,
    )


# ---------------------------------------------------------------------------
# execution


def _run_surface(entry: dict, label: str, spec: SceneSpec) -> dict:
    analyses = entry.get("analyses") or ["canal-detect"]
    surface = make_surface(entry["name"], entry.get("params") or entry.get("data"))
    report = detect_canal(
        surface, counts=spec.grids["surface_samples"], tolerances=spec.tolerances
    )
    out: dict = {"label": label, "kind": "surface", "name": entry["name"], "analyses": {}}
    if "canal-detect" in analyses:
        out["analyses"]["canal-detect"] = report.to_json()
    if "dupin" in analyses:
        out["analyses"]["dupin"] = {"dupin": report.dupin, "metric": report.dupin_metric}
    return out


def _run_family(entry: dict, label: str, spec: SceneSpec) -> tuple[dict, list]:
    analyses = entry.get("analyses") or ["causal"]
    family = make_family(entry["name"], entry.get("params") or entry.get("data"))
    out: dict = {"label": label, "kind": "family", "name": entry["name"], "analyses": {}}
    files: list[tuple[str, str]] = []

    if "causal" in analyses:
        rep = causal_classify_family(
            family, counts=spec.grids["family_samples"], tolerances=spec.tolerances
        )
        out["analyses"]["causal"] = rep.to_json()

    if "envelope" in analyses:
        mesh = envelope_mesh(
            family, t_count=spec.grids["mesh_t"], angle_count=spec.grids["mesh_angle"], name=label
        )
        fname = f"{label}.obj"
        files.append((fname, obj_text(mesh)))
        out["analyses"]["envelope"] = {
            "file": fname,
            "vertices": int(mesh.vertices.shape[0]),
            "faces": 0 if mesh.faces is None else int(mesh.faces.shape[0]),
        }

    if "singularities" in analyses:
        if family.r != 1 or family.dim_n != 3:
            raise CanalGeoError("singularities analysis needs an r = 1 family in R^3")
        m = spec.grids["singular_samples"]
        ts = cell_centers(family.domain, m)[:, 0]
        rows = []
        sigma_points = []
        counts = {"0": 0, "1": 0, "2": 0}
        max_resid = 0.0
        errors = 0
        for t in ts:
            try:
                coeffs = adapted_frame_coefficients(family, float(t))
                rep = singular_set(coeffs, tolerances=spec.tolerances)
            except CanalGeoError as err:
                rows.append({"t": float(t), "error": str(err)})
                errors += 1
                continue
            pts = [p.point for p in rep.points]
            for p in rep.points:
                x0, x1, x4 = p.generator
                eq_iso = abs(x1 * x1 - 2.0 * x0 * x4)
                eq_focal = abs(x0 + coeffs.lam212 * x1 + coeffs.c22 * x4)
                max_resid = max(max_resid, eq_iso, eq_focal)
            sigma_points.extend(pts)
            counts[str(rep.count)] += 1
            rows.append(
                {
                    "t": float(t),
                    "discriminant": rep.discriminant,
                    "count": rep.count,
                    "points": pts,
                }
            )
        fname = f"{label}_singular.csv"
        files.append((fname, singular_csv_text(rows)))
        result = {
            "file": fname,
            "samples": int(m),
            "counts": counts,
            "errors": errors,
            "max_generator_residual": max_resid,
            "points_file": None,
        }
        if sigma_points:
            pname = f"{label}_sigma.xyz"
            files.append((pname, xyz_text(np.asarray(sigma_points))))
            result["points_file"] = pname
        out["analyses"]["singularities"] = result

    return out, files


def _run_pencil(entry: dict, label: str, spec: SceneSpec) -> dict:
    s1, s2 = entry["spheres"]
    x = lift_sphere(np.asarray(s1["center"], dtype=float), float(s1["radius"]))
    y = lift_sphere(np.asarray(s2["center"], dtype=float), float(s2["radius"]))
    cls = classify_pencil(x, y, tolerances=spec.tolerances)
    return {
        "label": label,
        "kind": "pencil",
        "analyses": {"pencil": {"kind": cls.kind.value, "inversive": cls.inversive_value}},
    }


def _run_plane(entry: dict, label: str, spec: SceneSpec) -> dict:
    vectors = [PolyVector(np.asarray(v, dtype=float)) for v in entry["vectors"]]
    cls = classify_tube_plane(vectors, tolerances=spec.tolerances)
    return {"label": label, "kind": "plane", "analyses": {"plane-classify": cls.to_json()}}


def _entry_task(kind: str, index: int, entry: dict, spec: SceneSpec):
    label = _label_for(kind, index, entry)
    try:
        if kind == "surface":
            return _run_surface(entry, label, spec), []
        if kind == "family":
            return _run_family(entry, label, spec)
        if kind == "pencil":
            return _run_pencil(entry, label, spec), []
        return _run_plane(entry, label, spec), []
    except (CanalGeoError, ValueError, ArithmeticError) as err:
        return (
            {
                "label": label,
                "kind": kind,
                "error": {"type": type(err).__name__, "message": str(err)},
            },
            [],
        )


def _scene_tasks(spec: SceneSpec) -> list:
    """(kind, index, entry) of every entry, in report order."""
    return [
        (kind, i, entry)
        for kind, entries in (
            ("surface", spec.surfaces),
            ("family", spec.families),
            ("pencil", spec.pencils),
            ("plane", spec.planes),
        )
        for i, entry in enumerate(entries)
    ]


def _run_entry(kind: str, index: int, entry: dict, spec: SceneSpec, out_path: Path):
    """Run one entry and write its files; returns (result, file names)."""
    result, files = _entry_task(kind, index, entry, spec)
    for fname, text in files:
        (out_path / fname).write_text(text)
    return result, [fname for fname, _ in files]


# the (tasks, spec, out_path) of the pool this worker process serves
_WORKER_STATE = None


def _init_worker(spec: SceneSpec, out_path: Path) -> None:
    global _WORKER_STATE
    _WORKER_STATE = (_scene_tasks(spec), spec, out_path)


def _worker_entry(number: int):
    tasks, spec, out_path = _WORKER_STATE
    return _run_entry(*tasks[number], spec, out_path)


def _run_pool(tasks: list, spec: SceneSpec, out_path: Path, workers: int) -> list:
    """Every entry in a pool of worker processes; outcomes in task order."""
    import multiprocessing
    import threading
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    # fork skips the workers' re-import of the package, but a child forked
    # while another thread holds a lock inherits that lock held forever
    forkable = threading.active_count() == 1
    method = "fork" if forkable and "fork" in multiprocessing.get_all_start_methods() else "spawn"
    with ProcessPoolExecutor(
        max_workers=workers,
        mp_context=multiprocessing.get_context(method),
        initializer=_init_worker,
        initargs=(spec, out_path),
    ) as pool:
        futures = [pool.submit(_worker_entry, n) for n in range(len(tasks))]
        try:
            return [f.result() for f in futures]
        except BrokenProcessPool as err:
            unfinished = [
                _label_for(kind, i, entry)
                for (kind, i, entry), f in zip(tasks, futures)
                if not f.done() or f.exception() is not None
            ]
            raise CanalGeoError(
                f"a scene worker process died; unfinished entries: {', '.join(unfinished)}"
            ) from err


def run_scene(
    spec: SceneSpec, out_dir, jobs: int = 1
) -> tuple[dict, list, int]:
    """Execute a scene; returns (report dict, written file paths, exit code).

    ``jobs`` > 1 runs the entries in up to that many worker processes; the
    outputs are the same at every width.
    """
    out_path = Path(out_dir)
    out_path.mkdir(parents=True, exist_ok=True)

    tasks = _scene_tasks(spec)
    workers = min(jobs, len(tasks))
    if workers > 1:
        outcomes = _run_pool(tasks, spec, out_path, workers)
    else:
        outcomes = [_run_entry(k, i, e, spec, out_path) for k, i, e in tasks]

    results = {"surfaces": [], "families": [], "pencils": [], "planes": []}
    key_for = {"surface": "surfaces", "family": "families", "pencil": "pencils", "plane": "planes"}
    files: list[str] = []
    error_count = 0
    max_dupin = None
    max_generator_residual = None
    for (kind, _, _), (result, entry_files) in zip(tasks, outcomes):
        results[key_for[kind]].append(result)
        files.extend(entry_files)
        if "error" in result:
            error_count += 1
            continue
        canal = result.get("analyses", {}).get("canal-detect")
        if canal and canal.get("dupin_metric") is not None:
            val = canal["dupin_metric"]
            max_dupin = val if max_dupin is None else max(max_dupin, val)
        sing = result.get("analyses", {}).get("singularities")
        if sing:
            val = sing["max_generator_residual"]
            max_generator_residual = (
                val if max_generator_residual is None else max(max_generator_residual, val)
            )

    written = [str(out_path / fname) for fname in sorted(files)]

    report = {
        "tool": "canalgeo",
        "tool_version": __version__,
        "timestamp": _dt.datetime.now(_dt.timezone.utc).isoformat(),
        "provenance": {
            "tolerances": spec.tolerances.to_json(),
            "grids": dict(spec.grids),
        },
        "results": results,
        "error_count": error_count,
        "residuals": {
            "max_dupin_metric": max_dupin,
            "max_generator_residual": max_generator_residual,
        },
    }
    report_path = out_path / "report.json"
    report_path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    written.append(str(report_path))
    return report, written, (1 if error_count else 0)
