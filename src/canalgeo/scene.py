"""Scene ingestion, validation, and batch execution.

A scene is a JSON document listing surfaces, sphere families, pencils, and
sphere planes, each with requested analyses.  ``validate_scene`` checks the
document without running anything; ``run_scene`` executes all entries,
writes meshes (with the exact vertex array of an envelope in R^n, n >= 4)
and singular-locus files, and assembles a deterministic JSON
report: identical scenes yield byte-identical reports apart from the
timestamp field.

Entries run one after another in the calling process, in scene order.  An
entry returns each of its files as a name and a function that streams the
file into an open binary file; once the entry has succeeded, its files are
written to disk, so no file is ever whole in memory and an entry that ends in
an error leaves no file behind.
"""

from __future__ import annotations

import datetime as _dt
import json
import re
from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO, Callable

import numpy as np

from . import __version__
from .canal import detect_canal
from .catalog import _is_finite, family_catalog, make_family, make_surface, surface_catalog
from .config import DEFAULT_TOLERANCES, Tolerances
from .conformal import PolyVector, classify_pencil, lift_sphere
from .envelope import causal_classify_family, envelope_mesh
from .errors import CanalGeoError
from .focal import _singular_rows, classify_tube_plane
from .jets import cell_centers
from .meshio import write_obj, write_singular_csv, write_xyz

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
    return isinstance(x, (int, float)) and not isinstance(x, bool) and _is_finite(x)


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


def _entries(data: dict, key: str, diags: list):
    """(path, entry) of each object in the list section ``key``; records the
    diagnostics of a section that is not a list and of an entry that is not an object."""
    section = data.get(key, [])
    if not isinstance(section, list):
        diags.append(_diag("scene", key, f"{key} must be a list"))
        return
    for i, entry in enumerate(section):
        if isinstance(entry, dict):
            yield f"{key}[{i}]", entry
        else:
            diags.append(_diag(f"{key}[{i}]", "", "entry must be an object"))


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

    for kind, key, catalog, make, allowed in (
        ("surface", "surfaces", surface_catalog, make_surface, _SURFACE_ANALYSES),
        ("family", "families", family_catalog, make_family, _FAMILY_ANALYSES),
    ):
        for path, entry in _entries(data, key, diags):
            name = entry.get("name")
            if not isinstance(name, str):
                diags.append(_diag(path, "name", f"{kind} entry needs a catalog name"))
                continue
            if name not in catalog():
                diags.append(_diag(path, "name", f"unknown catalog {kind} {name!r}"))
                continue
            _check_analyses(entry, path, allowed, diags)
            params = entry.get("params") or entry.get("data")
            if name == "sampled" and isinstance(params, dict):
                radii = params.get("radii", [])
                if isinstance(radii, list) and not all(_is_number(r) and r > 0 for r in radii):
                    diags.append(_diag(path, "data.radii", "radii must be positive finite numbers"))
                    continue
            try:
                make(name, params)
            except (CanalGeoError, TypeError, ValueError) as err:
                diags.append(_diag(path, "params", str(err)))

    for path, entry in _entries(data, "pencils", diags):
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

    for path, entry in _entries(data, "planes", diags):
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
    report = detect_canal(surface, counts=spec.grids["surface_samples"], tolerances=spec.tolerances)
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
    # (file name, function that writes the file into an open binary file)
    files: list[tuple[str, Callable[[BinaryIO], None]]] = []

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
        files.append((fname, lambda fh: write_obj(fh, mesh)))
        out["analyses"]["envelope"] = {
            "file": fname,
            "vertices": int(mesh.vertices.shape[0]),
            "faces": 0 if mesh.faces is None else int(mesh.faces.shape[0]),
            "vertices_file": None,
        }
        if family.dim_n > 3:  # the OBJ holds (x1, x2, x3) only; the exact vertices go beside it
            vname = f"{label}.npy"
            files.append((vname, lambda fh: np.save(fh, mesh.vertices, allow_pickle=False)))
            out["analyses"]["envelope"]["vertices_file"] = vname

    if "singularities" in analyses:
        m = spec.grids["singular_samples"]
        grid = cell_centers(family.domain, m)
        rows, found = [], []
        for t, rep in zip(grid[:, 0].tolist(), _singular_rows(family, grid, spec.tolerances)):
            if isinstance(rep, CanalGeoError):
                rows.append(dict(t=t, error=str(rep)))
                continue
            found.append(rep)
            pts = [p.point for p in rep.points]
            # D / lam22^2 = (K, K): free of the frame's base point and of the family's scale
            kk = rep.discriminant / rep.coefficients.lam22**2
            rows.append(dict(t=t, discriminant=kk, count=rep.count, points=pts))
        sigma_points = [p for row in rows for p in row.get("points", ())]
        fname = f"{label}_singular.csv"
        files.append((fname, lambda fh: write_singular_csv(fh, rows)))
        result = {
            "file": fname,
            "samples": int(m),
            "counts": {str(k): sum(rep.count == k for rep in found) for k in range(3)},
            "errors": len(rows) - len(found),
            "max_generator_residual": max((rep.residual for rep in found), default=0.0),
            "points_file": None,
        }
        if sigma_points:
            pname = f"{label}_sigma.xyz"
            files.append((pname, lambda fh: write_xyz(fh, np.asarray(sigma_points))))
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
        error = {"type": type(err).__name__, "message": str(err)}
        return {"label": label, "kind": kind, "error": error}, []


def _write_files(out_path: Path, files: list) -> list[str]:
    """Open each (name, write) file of ``files`` in ``out_path``, let ``write``
    stream it, and return the names."""
    for fname, write in files:
        with open(out_path / fname, "wb") as fh:
            write(fh)
    return [fname for fname, _ in files]


def run_scene(spec: SceneSpec, out_dir) -> tuple[dict, list, int]:
    """Execute a scene; returns (report dict, written file paths, exit code).

    An ``OSError`` from creating ``out_dir`` or writing a file propagates.
    """
    out_path = Path(out_dir)
    out_path.mkdir(parents=True, exist_ok=True)

    results = {"surfaces": [], "families": [], "pencils": [], "planes": []}
    files: list[str] = []
    error_count = 0
    dupin_metrics, generator_residuals = [], []
    for kind, key in (
        ("surface", "surfaces"),
        ("family", "families"),
        ("pencil", "pencils"),
        ("plane", "planes"),
    ):
        for index, entry in enumerate(getattr(spec, key)):
            result, entry_files = _entry_task(kind, index, entry, spec)
            files += _write_files(out_path, entry_files)
            del entry_files  # the next entry runs without this one's meshes
            results[key].append(result)
            if "error" in result:
                error_count += 1
                continue
            canal = result["analyses"].get("canal-detect")
            if canal and canal.get("dupin_metric") is not None:
                dupin_metrics.append(canal["dupin_metric"])
            sing = result["analyses"].get("singularities")
            if sing:
                generator_residuals.append(sing["max_generator_residual"])

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
            "max_dupin_metric": max(dupin_metrics, default=None),
            "max_generator_residual": max(generator_residuals, default=None),
        },
    }
    text = (json.dumps(report, indent=2, sort_keys=True) + "\n").encode()
    _write_files(out_path, [("report.json", lambda fh: fh.write(text))])
    written.append(str(out_path / "report.json"))
    return report, written, (1 if error_count else 0)
