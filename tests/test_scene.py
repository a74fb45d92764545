"""Scene validation, batch execution, deterministic writers, and the CLI."""

import dataclasses
import io
import json
import math
import os
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from canalgeo import DEFAULT_TOLERANCES, CanalGeoError, DomainError, SceneError, errors, meshio
from canalgeo import focal as focal_module, scene as scene_module
from canalgeo.canal import detect_canal
from canalgeo.cli import main
from canalgeo.catalog import family_catalog, make_family, make_surface, surface_catalog
from canalgeo.envelope import _DIRECTION_SCAN, EnvelopeMesh, SphereFamily, envelope_mesh
from canalgeo.jets import cell_centers
from canalgeo.meshio import _CHUNK_ROWS, format_number, obj_text, singular_csv_text, xyz_text
from canalgeo.scene import DEFAULT_GRIDS, load_scene, run_scene, validate_scene

SMALL_GRIDS = {
    "surface_samples": 4,
    "family_samples": 8,
    "singular_samples": 6,
    "mesh_t": 24,
    "mesh_angle": 12,
}


def _rich_scene():
    return {
        "version": 1,
        "grids": dict(SMALL_GRIDS),
        "surfaces": [
            {"name": "torus", "params": {"major": 2.0, "minor": 1.0}, "analyses": ["canal-detect", "dupin"]},
        ],
        "families": [
            {
                "name": "circle-tube",
                "label": "thin",
                "params": {"major": 2.0, "rho": 0.5},
                "analyses": ["causal", "envelope", "singularities"],
            },
            {
                "name": "circle-tube",
                "label": "fat",
                "params": {"major": 1.0, "rho": 2.0},
                "analyses": ["singularities"],
            },
        ],
        "pencils": [
            {
                "spheres": [
                    {"center": [0.0, 0.0, 0.0], "radius": 2.0},
                    {"center": [1.0, 0.0, 0.0], "radius": 2.0},
                ]
            }
        ],
        "planes": [
            {
                "vectors": [
                    [1.0, 0.0, 0.0, 0.0, 0.0],
                    [0.0, 0.0, 0.0, 0.0, 1.0],
                    [0.0, 1.0, 0.0, 0.0, 0.0],
                ]
            }
        ],
    }


# ---------------------------------------------------------------------------
# validation


def _diagnostics(scene) -> list:
    """``validate_scene(scene)``, checked to be the diagnostics that ``load_scene`` raises."""
    diags = validate_scene(scene)
    with pytest.raises(SceneError) as raised:
        load_scene(scene)
    assert raised.value.diagnostics == diags
    return diags


def test_validate_accepts_rich_scene():
    assert validate_scene(_rich_scene()) == []


def test_validate_rejects_non_object():
    diags = _diagnostics([1, 2, 3])
    assert len(diags) == 1 and "object" in diags[0]["message"]


def test_validate_names_bad_pencil_radius():
    scene = _rich_scene()
    scene["pencils"][0]["spheres"][1]["radius"] = -1.0
    diags = _diagnostics(scene)
    assert any(
        d["entry"] == "pencils[0]" and d["field"] == "spheres[1].radius" for d in diags
    )


def test_validate_names_unknown_catalog_entries():
    scene = {
        "version": 1,
        "surfaces": [{"name": "klein-bottle"}],
        "families": [{"name": "trefoil"}],
    }
    diags = _diagnostics(scene)
    fields = {(d["entry"], d["field"]) for d in diags}
    assert ("surfaces[0]", "name") in fields
    assert ("families[0]", "name") in fields


def test_validate_rejects_unknown_analysis_and_fields():
    scene = _rich_scene()
    scene["surfaces"][0]["analyses"] = ["frobnicate"]
    scene["extras"] = True
    scene["grids"]["mesh_t"] = -3
    scene["tolerances"] = {"nonsense": 1e-3, "canal": -1.0}
    diags = _diagnostics(scene)
    fields = {(d["entry"], d["field"]) for d in diags}
    assert ("surfaces[0]", "analyses") in fields
    assert ("scene", "extras") in fields
    assert ("scene", "grids.mesh_t") in fields
    assert ("scene", "tolerances.nonsense") in fields
    assert ("scene", "tolerances.canal") in fields


def test_validate_rejects_bad_version_and_sampled_radii():
    scene = {
        "version": 99,
        "families": [
            {
                "name": "sampled",
                "data": {
                    "t": [0.0, 0.5, 1.0, 1.5, 2.0],
                    "centers": [[float(k), 0.0, 0.0] for k in range(5)],
                    "radii": [0.5, 0.5, -0.5, 0.5, 0.5],
                },
            }
        ],
    }
    diags = _diagnostics(scene)
    fields = {(d["entry"], d["field"]) for d in diags}
    assert ("scene", "version") in fields
    assert ("families[0]", "data.radii") in fields


def test_validate_rejects_bad_surface_params():
    scene = {"version": 1, "surfaces": [{"name": "torus", "params": {"major": -1.0}}]}
    diags = _diagnostics(scene)
    assert any(d["entry"] == "surfaces[0]" and d["field"] == "params" for d in diags)


@pytest.mark.parametrize(
    "params",
    [[["major", 2.0], ["minor", 1.0]], [2.0, 1.0], "major"],
    ids=["pairs", "numbers", "string"],
)
def test_validate_rejects_non_object_params(params):
    scene = {
        "version": 1,
        "surfaces": [{"name": "torus", "params": params}],
        "families": [{"name": "circle-tube", "params": params}],
    }
    diags = _diagnostics(scene)
    assert {(d["entry"], d["field"], d["message"]) for d in diags} == {
        ("surfaces[0]", "params", "params must be an object"),
        ("families[0]", "params", "params must be an object"),
    }


def test_load_scene_applies_overrides():
    scene = _rich_scene()
    scene["tolerances"] = {"canal": 5e-4}
    spec = load_scene(scene)
    assert spec.tolerances.canal == 5e-4
    assert spec.grids["mesh_t"] == SMALL_GRIDS["mesh_t"]
    assert spec.grids["mesh_angle"] == SMALL_GRIDS["mesh_angle"]
    # untouched names keep their defaults
    assert spec.tolerances.pencil == 1e-9
    assert set(spec.grids) == set(DEFAULT_GRIDS)


# ---------------------------------------------------------------------------
# execution


def test_run_scene_empty(tmp_path):
    spec = load_scene({"version": 1})
    report, written, code = run_scene(spec, tmp_path)
    assert code == 0
    assert report["error_count"] == 0
    assert all(report["results"][k] == [] for k in ("surfaces", "families", "pencils", "planes"))
    assert (tmp_path / "report.json").exists()
    assert written == [str(tmp_path / "report.json")]


def test_run_scene_full_bundle(tmp_path):
    spec = load_scene(_rich_scene())
    report, written, code = run_scene(spec, tmp_path)
    assert code == 0
    assert report["error_count"] == 0

    torus = report["results"]["surfaces"][0]
    assert torus["analyses"]["dupin"]["dupin"] is True
    assert torus["analyses"]["dupin"]["metric"] < 1e-9
    assert torus["analyses"]["canal-detect"]["is_canal"] is True

    thin = report["results"]["families"][0]
    assert thin["analyses"]["causal"]["verdict"] == "canal"
    env = thin["analyses"]["envelope"]
    assert env["vertices"] == SMALL_GRIDS["mesh_t"] * SMALL_GRIDS["mesh_angle"]
    assert env["faces"] > 0
    sing = thin["analyses"]["singularities"]
    assert sing["counts"] == {"0": 6, "1": 0, "2": 0}
    assert sing["points_file"] is None

    fat = report["results"]["families"][1]
    sing = fat["analyses"]["singularities"]
    assert sing["counts"] == {"0": 0, "1": 0, "2": 6}
    assert sing["max_generator_residual"] < 1e-9
    assert sing["points_file"] is not None

    pencil = report["results"]["pencils"][0]
    assert pencil["analyses"]["pencil"]["kind"] == "elliptic"

    plane = report["results"]["planes"][0]
    assert plane["analyses"]["plane-classify"]["kind"] == "smooth_tube"

    names = {p.rsplit("/", 1)[-1] for p in written}
    assert {"thin-0.obj", "thin-0_singular.csv", "fat-1_singular.csv", "fat-1_sigma.xyz", "report.json"} <= names

    # the singular CSV carries the analytic discriminant and apex points
    csv_lines = (tmp_path / "fat-1_singular.csv").read_text().strip().splitlines()
    assert csv_lines[0].startswith("t,discriminant,count,")
    body = [line.split(",") for line in csv_lines[1:]]
    assert len(body) == 6
    for cells in body:
        assert float(cells[1]) > 0.0
        assert cells[2] == "2"
        zs = sorted([float(cells[5]), float(cells[8])])
        assert zs[0] == pytest.approx(-math.sqrt(3.0), abs=1e-6)
        assert zs[1] == pytest.approx(math.sqrt(3.0), abs=1e-6)


def test_run_scene_entry_error_sets_exit_code(tmp_path):
    scene = {
        "version": 1,
        "grids": dict(SMALL_GRIDS),
        "families": [
            {"name": "r4-circle", "analyses": ["singularities"]},
            {"name": "circle-tube", "analyses": ["causal"]},
            # the mesh is built, then the singularities analysis fails
            {"name": "r4-circle", "label": "meshed", "analyses": ["envelope", "singularities"]},
        ],
    }
    assert validate_scene(scene) == []
    spec = load_scene(scene)
    report, written, code = run_scene(spec, tmp_path)
    assert code == 1
    assert report["error_count"] == 2
    for failed in (report["results"]["families"][0], report["results"]["families"][2]):
        assert "error" in failed and "r = 1" in failed["error"]["message"]
        assert failed["error"]["type"] == "DomainError"
    # the healthy entry still ran
    assert report["results"]["families"][1]["analyses"]["causal"]["verdict"] == "canal"
    # an entry that ends in an error leaves no file behind
    assert list(tmp_path.glob("*.obj")) == []
    assert written == [str(tmp_path / "report.json")]


def test_an_envelope_in_the_plane_is_an_error_entry(tmp_path, capsys):
    ts = np.linspace(0.0, 1.0, 9)
    data = {"t": ts.tolist(), "centers": [[t, 0.0] for t in ts], "radii": [0.5] * 9}
    family = {"name": "sampled", "label": "plane", "data": data, "analyses": ["causal", "envelope"]}
    path = _write_scene(tmp_path, {"version": 1, "families": [family]})
    out = tmp_path / "out"
    assert main(["run", path, "--out", str(out), "--grid", "mesh_t=4", "--grid", "mesh_angle=8"]) == 1
    assert "1 entries, 1 errors" in capsys.readouterr().out
    report = json.loads((out / "report.json").read_text())
    assert "n >= 3" in report["results"]["families"][0]["error"]["message"]
    assert list(out.glob("*.obj")) == []


def test_run_scene_streams_the_bytes_of_the_in_memory_writers(tmp_path, monkeypatch):
    # every file equals the bytes form of the same writer on the same input
    seen = {}
    for name in ("write_singular_csv", "write_xyz"):
        original = getattr(scene_module, name)

        def recording(fh, data, original=original, name=name):
            seen[fh.name] = (name, data)
            original(fh, data)

        monkeypatch.setattr(scene_module, name, recording)
    scene = _rich_scene()
    report, written, code = run_scene(load_scene(scene), tmp_path)
    assert code == 0
    thin = scene["families"][0]
    mesh = envelope_mesh(
        make_family(thin["name"], thin["params"]),
        t_count=SMALL_GRIDS["mesh_t"],
        angle_count=SMALL_GRIDS["mesh_angle"],
        name="thin-0",
    )
    expected = {str(tmp_path / "thin-0.obj"): obj_text(mesh)}
    # an n = 3 envelope has its normals in the OBJ and no vertex array beside it
    assert report["results"]["families"][0]["analyses"]["envelope"]["vertices_file"] is None
    bytes_form = {"write_singular_csv": singular_csv_text, "write_xyz": xyz_text}
    for path, (name, data) in seen.items():
        expected[path] = bytes_form[name](data)
    assert sorted(expected) == [p for p in written if not p.endswith("report.json")]
    assert {"thin-0_singular.csv", "fat-1_singular.csv", "fat-1_sigma.xyz"} <= {
        Path(p).name for p in seen
    }
    for path, data in expected.items():
        assert Path(path).read_bytes() == data, path


def test_run_scene_streams_the_mesh_file(tmp_path):
    # the n = 4 OBJ is never whole in memory: the traced peak stays within
    # the mesh's arrays plus a small fraction of the file (at the default
    # grids, where the OBJ of vertices alone is above 20 MB)
    scene = {"version": 1, "families": [{"name": "r4-circle", "analyses": ["envelope"]}]}
    spec = load_scene(scene)
    mesh = envelope_mesh(
        make_family("r4-circle", None),
        t_count=DEFAULT_GRIDS["mesh_t"],
        angle_count=DEFAULT_GRIDS["mesh_angle"],
    )
    assert mesh.normals is None and mesh.faces is None
    mesh_bytes = mesh.vertices.nbytes
    del mesh
    tracemalloc.start()
    try:
        report, _, code = run_scene(spec, tmp_path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    obj_file = report["results"]["families"][0]["analyses"]["envelope"]["file"]
    obj_size = (tmp_path / obj_file).stat().st_size
    assert obj_size > 20e6
    assert peak - mesh_bytes < obj_size / 2, (peak, mesh_bytes, obj_size)


def _sampled_r4_data():
    """A sampled family in R^4 whose radius 0.5 + 0.1 sin t varies along a tilted circle."""
    ts = np.linspace(0.0, 2.0 * math.pi, 24)
    centers = np.stack([2 * np.cos(ts), 2 * np.sin(ts), 0.3 * np.sin(ts), 0 * ts], axis=1)
    return {"t": ts.tolist(), "centers": centers.tolist(), "radii": (0.5 + 0.1 * np.sin(ts)).tolist()}


def test_n4_envelope_files_hold_the_exact_vertices_on_the_envelope(tmp_path):
    # the .npy beside an n = 4 OBJ is the mesh's vertex array bit for bit, and
    # every row of it solves both envelope equations: it lies on its sphere
    # |x - c|^2 = rho^2 and on the sphere's t-derivative (x - c).c' + rho rho' = 0
    grids = {"mesh_t": 64, "mesh_angle": 16}
    entries = [
        {"name": "r4-circle", "analyses": ["envelope"]},
        {"name": "sampled", "data": _sampled_r4_data(), "analyses": ["envelope"]},
    ]
    report, _, code = run_scene(
        load_scene({"version": 1, "grids": grids, "families": entries}), tmp_path
    )
    assert code == 0
    for entry, result in zip(entries, report["results"]["families"]):
        env = result["analyses"]["envelope"]
        assert env["vertices_file"] == f"{result['label']}.npy"
        with open(tmp_path / env["vertices_file"], "rb") as fh:
            x = np.load(fh, allow_pickle=False)
        family = make_family(entry["name"], entry.get("params") or entry.get("data"))
        mesh = envelope_mesh(family, t_count=grids["mesh_t"], angle_count=grids["mesh_angle"])
        assert x.dtype == np.float64 and x.shape == (env["vertices"], 4)
        assert x.tobytes() == mesh.vertices.tobytes()
        # the mesh is t-major: each of the mesh_t values of t owns one block of rows
        lo, hi = family.domain[0]
        ts = np.linspace(lo, hi, grids["mesh_t"])
        jet = family.jets_at(np.repeat(ts, len(x) // len(ts))[:, None])
        d, dc, rho, drho = x - jet.c, jet.dc[:, 0], jet.rho, jet.drho[:, 0]
        on_sphere = np.abs(np.einsum("pi,pi->p", d, d) - rho**2) / rho**2
        on_derivative = np.abs(np.einsum("pi,pi->p", d, dc) + rho * drho)
        on_derivative /= rho * np.linalg.norm(dc, axis=1)
        assert on_sphere.max() <= 1e-14 and on_derivative.max() <= 1e-14, entry["name"]
        # the OBJ beside it: one v line per vertex, and no normals
        text = (tmp_path / env["file"]).read_bytes()
        assert text.count(b"\nv ") + text.startswith(b"v ") == env["vertices"]
        assert b"vn " not in text


def _fallback_scene():
    """A sampled family whose radius 4 + 3 sin t outruns its spine speed 2 on half of [0, 2 pi]."""
    ts = np.linspace(0.0, 2.0 * math.pi, 48)
    data = {
        "t": ts.tolist(),
        "centers": np.stack([2 * np.cos(ts), 2 * np.sin(ts), 0 * ts], axis=1).tolist(),
        "radii": (4 + 3 * np.sin(ts)).tolist(),
    }
    family = {"name": "sampled", "label": "wide", "data": data, "analyses": ["causal", "singularities"]}
    return {"version": 1, "families": [family]}


def test_singularities_with_failing_samples_keep_their_error_cells(tmp_path):
    # half of the t have no adapted frame: each keeps its error in its own cell of the one pass
    spec = load_scene(_fallback_scene())
    report, _, code = run_scene(spec, tmp_path)
    assert code == 0
    sing = report["results"]["families"][0]["analyses"]["singularities"]
    assert sing["errors"] == 12
    assert sing["counts"] == {"0": 8, "1": 0, "2": 4}
    lines = (tmp_path / sing["file"]).read_text().strip().splitlines()[1:]
    errors = [line.split(",")[-1] for line in lines if line.split(",")[-1]]
    assert len(errors) == 12
    for cell in errors:
        assert re.fullmatch(r"family is not spacelike at t=[^;]+; no adapted frame exists", cell)


def test_a_family_level_failure_keeps_its_cells_and_scans_once(
    tmp_path, monkeypatch, spiral_samples
):
    # no chart frame exists for the whole family: every t keeps that error in its own cell
    scans = []
    jets_at = SphereFamily.jets_at

    def counted(family, ts):
        scans.append(len(ts))
        return jets_at(family, ts)

    monkeypatch.setattr(SphereFamily, "jets_at", counted)
    family = {
        "name": "sampled",
        "label": "spiral",
        "data": spiral_samples,
        "analyses": ["singularities"],
    }
    report, _, code = run_scene(load_scene({"version": 1, "families": [family]}), tmp_path)
    assert code == 0
    sing = report["results"]["families"][0]["analyses"]["singularities"]
    assert sing["errors"] == DEFAULT_GRIDS["singular_samples"] == 24
    message = "spine tangent sweeps too much of the sphere; no smooth chart frame"
    grid = cell_centers(np.array([[0.0, math.pi]]), 24)[:, 0]
    want = singular_csv_text([{"t": float(t), "error": message} for t in grid])
    assert (tmp_path / sing["file"]).read_bytes() == want
    assert scans.count(_DIRECTION_SCAN) == 1  # the reference scan, which raises, runs once


def test_singularities_take_one_batched_frame_pass(tmp_path, monkeypatch):
    passes = []
    original = focal_module._adapted_rows
    monkeypatch.setattr(
        focal_module,
        "_adapted_rows",
        lambda family, ts: passes.append(len(ts)) or original(family, ts),
    )
    _, _, code = run_scene(load_scene(_rich_scene()), tmp_path / "rich")
    assert code == 0
    assert passes == [SMALL_GRIDS["singular_samples"]] * 2
    # failing t stay in their entry's one pass
    del passes[:]
    run_scene(load_scene(_fallback_scene()), tmp_path / "fallback")
    assert passes == [DEFAULT_GRIDS["singular_samples"]]


def _strip_timestamp(text: str) -> str:
    return re.sub(r'^\s*"timestamp": .*\n', "", text, flags=re.M)


def test_reports_identical_across_runs(tmp_path):
    # two runs of one scene write byte-identical files, the timestamp aside
    spec = load_scene(_rich_scene())
    _, _, code1 = run_scene(spec, tmp_path / "run1")
    _, _, code2 = run_scene(spec, tmp_path / "run2")
    assert code1 == code2 == 0
    assert _outputs(tmp_path / "run1") == _outputs(tmp_path / "run2")


def _outputs(out_dir):
    """File name -> text of every output, the report's timestamp line dropped."""
    return {p.name: _strip_timestamp(p.read_text()) for p in out_dir.iterdir()}


# ---------------------------------------------------------------------------
# writers


def test_format_number_canonical():
    assert format_number(0.0) == "0"
    assert format_number(-0.0) == "0"
    assert format_number(1.5) == "1.5"
    assert format_number(-2.25) == "-2.25"
    assert format_number(1e-12) == "1e-12"


def test_singular_csv_error_rows():
    rows = [
        {"t": 0.5, "discriminant": 0.75, "count": 1, "points": [[1.0, 2.0, 3.0]]},
        {"t": 1.0, "error": "bad, sample"},
    ]
    lines = singular_csv_text(rows).decode("ascii").strip().splitlines()
    assert lines[0] == "t,discriminant,count,p1_x,p1_y,p1_z,p2_x,p2_y,p2_z,error"
    assert lines[1] == "0.5,0.75,1,1,2,3,,,,"
    assert lines[2] == "1,,,,,,,,,bad; sample"


def test_xyz_text_roundtrip():
    pts = np.array([[1.0, 2.0, 3.0], [-0.5, 0.25, 0.0]])
    text = xyz_text(pts).decode("ascii")
    back = np.array([[float(c) for c in line.split()] for line in text.strip().splitlines()])
    assert np.allclose(back, pts)
    assert xyz_text(np.empty((0, 3))) == b""


def _reference_obj(mesh) -> bytes:
    """OBJ rendered one number at a time with `format_number`, as ASCII: the
    vertices' (x1, x2, x3), and ``vn`` records exactly when the mesh has normals."""
    lines = [f"o {mesh.name}"] if mesh.name else []
    normals = mesh.normals is not None
    records = (("v", mesh.vertices), ("vn", mesh.normals)) if normals else (("v", mesh.vertices),)
    for tag, rows in records:
        lines += [" ".join([tag] + [format_number(x) for x in row[:3]]) for row in rows]
    if mesh.faces is not None:
        for face in mesh.faces:
            a, b, c = (int(i) + 1 for i in face)
            lines.append(f"f {a}//{a} {b}//{b} {c}//{c}" if normals else f"f {a} {b} {c}")
    return "".join(line + "\n" for line in lines).encode("ascii")


def _reference_xyz(points) -> bytes:
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.size == 0:
        return b""
    return "".join(" ".join(format_number(x) for x in row) + "\n" for row in pts).encode("ascii")


_SPECIAL = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -2.2e-308, 1.7976931348623157e308]
_ROW_COUNTS = [0, 1, 2, _CHUNK_ROWS - 1, _CHUNK_ROWS, _CHUNK_ROWS + 1]


@st.composite
def _tables(draw, cols):
    """(rows, cols) float arrays cycling a drawn pool of values, specials included."""
    pool = draw(
        st.lists(st.one_of(st.sampled_from(_SPECIAL), st.floats()), min_size=1, max_size=40)
    )
    rows = draw(st.sampled_from(_ROW_COUNTS))
    return np.resize(np.array(pool, dtype=float), (rows, cols))


@settings(max_examples=40, deadline=None)
@given(
    data=st.data(),
    cols=st.sampled_from([3, 4]),
    with_normals=st.booleans(),
    with_faces=st.booleans(),
)
def test_obj_text_matches_per_number_reference(data, cols, with_normals, with_faces):
    verts = data.draw(_tables(cols))
    normals = np.resize(verts[::-1], (len(verts), 3)) if with_normals else None
    faces = None
    if with_faces:  # every index names a vertex; an empty mesh takes an empty face table
        count = data.draw(st.sampled_from(_ROW_COUNTS)) if len(verts) else 0
        first = data.draw(st.integers(0, 10**6))
        faces = np.arange(first, first + 3 * count, dtype=int).reshape(count, 3) % max(len(verts), 1)
    mesh = EnvelopeMesh(
        vertices=verts,
        normals=normals,
        faces=faces,
        name=data.draw(st.sampled_from(["", "tube"])),
    )
    assert obj_text(mesh) == _reference_obj(mesh)


@settings(max_examples=40, deadline=None)
@given(data=st.data(), cols=st.sampled_from([1, 3, 4]))
def test_xyz_text_matches_per_number_reference(data, cols):
    pts = data.draw(_tables(cols))
    assert xyz_text(pts) == _reference_xyz(pts)


def _face_lines(faces) -> bytes:
    """The face lines of 1-based index rows, rendered alone by the face kernel."""
    buf = io.BytesIO()
    meshio._write_lines(buf, "f ", faces, meshio._face_words)
    return buf.getvalue()


def _reference_face_lines(faces) -> bytes:
    return "".join(f"f {a}//{a} {b}//{b} {c}//{c}\n" for a, b, c in faces.tolist()).encode("ascii")


@settings(max_examples=40, deadline=None)
@given(count=st.sampled_from(_ROW_COUNTS), first=st.integers(0, 10**6))
def test_face_lines_match_per_index_reference(count, first):
    # indices of up to 7 digits, more than any mesh of these row counts has vertices
    faces = np.arange(first, first + 3 * count, dtype=np.int64).reshape(count, 3) % 1000003 + 1
    assert _face_lines(faces) == _reference_face_lines(faces)


def test_obj_face_indices_up_to_the_documented_bound():
    # the face kernel on 1-based indices on both sides of every digit count change below
    # 10**12; no mesh that small has them, so the face lines are rendered alone
    refs = sorted({i for j in range(12) for i in (10**j - 1, 10**j, 10**j + 1) if i >= 1})
    refs = np.array(refs + [10**12 - 1], dtype=np.int64)
    faces = np.stack([refs, np.roll(refs, 1), np.roll(refs, 2)], axis=1)
    assert _face_lines(faces) == _reference_face_lines(faces)


@pytest.mark.parametrize("bad", [-1, -5, 4, 10**12, 2**62])
def test_obj_face_index_outside_the_vertices_is_refused(bad):
    # 4 vertices: indices 0..3 name them; nothing is written for a mesh that names others
    faces = np.array([[0, 1, 2], [2, 3, bad]], dtype=np.int64)
    zeros = np.zeros((4, 3))
    mesh = EnvelopeMesh(vertices=zeros, normals=zeros, faces=faces, name="m")
    buf = io.BytesIO()
    with pytest.raises(DomainError, match=rf"mesh face index {bad} is outside \[0, 4\)"):
        meshio.write_obj(buf, mesh)
    assert buf.getvalue() == b""
    assert obj_text(dataclasses.replace(mesh, faces=faces[:1])).endswith(b"\nf 1//1 2//2 3//3\n")


def test_obj_writes_vn_exactly_when_the_mesh_has_normals():
    verts = np.arange(12.0).reshape(4, 3)
    faces = np.array([[0, 1, 2], [2, 3, 0]])
    mesh = EnvelopeMesh(vertices=verts, normals=None, faces=faces, name="")
    assert obj_text(mesh) == b"v 0 1 2\nv 3 4 5\nv 6 7 8\nv 9 10 11\nf 1 2 3\nf 3 4 1\n"
    with_normals = obj_text(dataclasses.replace(mesh, normals=-verts))
    assert with_normals.count(b"vn ") == 4 and with_normals.endswith(b"\nf 3//3 4//4 1//1\n")


@pytest.mark.parametrize("shape", [(4, 4), (4, 2), (3, 3), (5, 3), (12,)])
def test_obj_normals_of_another_shape_are_refused(shape):
    # an n = 3 mesh has one (x, y, z) normal per vertex; nothing is written for other normals
    mesh = EnvelopeMesh(vertices=np.zeros((4, 3)), normals=np.zeros(shape), faces=None, name="m")
    buf = io.BytesIO()
    named = re.escape(f"mesh normals have shape {shape}, not (4, 3)")
    with pytest.raises(DomainError, match=named):
        meshio.write_obj(buf, mesh)
    assert buf.getvalue() == b""


@pytest.mark.parametrize("shape", [(12,), (4, 1), (4, 2)])
def test_obj_vertices_of_fewer_than_three_columns_are_refused(shape):
    # a v record holds x y z; nothing is written for vertices that have no third coordinate
    mesh = EnvelopeMesh(vertices=np.zeros(shape), normals=None, faces=None, name="m")
    buf = io.BytesIO()
    named = re.escape(f"mesh vertices have shape {shape}, not (count, 3 or more)")
    with pytest.raises(DomainError, match=named):
        meshio.write_obj(buf, mesh)
    assert buf.getvalue() == b""


def _steps(x: float, count: int) -> float:
    """``x`` moved ``count`` doubles up (count > 0) or down."""
    for _ in range(abs(count)):
        x = math.nextafter(x, math.inf if count > 0 else -math.inf)
    return x


# Numbers where the writer's 12 digits are hardest to get right: within a few
# doubles of a tie in the 13th digit, of a power of ten, or of the ends of
# its fast range, and those that it must render one at a time.
_NEAR_TIES = st.builds(
    lambda mant, exp, step: _steps(float(f"{mant}5e{exp}"), step),
    st.integers(10**11, 10**12 - 1),
    st.integers(-17, 13),
    st.integers(-3, 3),
)
_NEAR_POWERS = st.builds(
    lambda j, step, sign: sign * _steps(10.0**j, step),
    st.integers(-5, 12),
    st.integers(-3, 3),
    st.sampled_from([1.0, -1.0]),
)
_ADVERSARIAL = st.one_of(
    _NEAR_TIES,
    _NEAR_POWERS,
    st.floats(-1e-11, 1e-11),
    st.floats(min_value=1e11),
    st.floats(max_value=-1e11),
    st.floats(-2.2250738585072014e-308, 2.2250738585072014e-308),  # subnormals and +-0
    st.sampled_from(_SPECIAL),
)


# The pinned pools each route numbers to the exact path: zero, nan and the
# infinities; |x| outside [1e-11, 1e12); fractional parts of m within 1e-3 of
# a half (1234567890.125 is an exact tie, which rounds to even); and doubles
# just below a power of ten, where log10 lands one decade off or m rounds up
# to 1e12.
@settings(max_examples=40, deadline=None)
@given(
    pool=st.lists(_ADVERSARIAL, min_size=1, max_size=40),
    rows=st.sampled_from(_ROW_COUNTS),
    cols=st.sampled_from([1, 3, 4]),
)
@example(pool=[0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -1.5], rows=3, cols=3)
@example(pool=[9.9e-12, -1e-300, 1e12, -3.5e15, 1.7976931348623157e308], rows=2, cols=4)
@example(pool=[1234567890.125, -100000000000.5, 0.1234567890125, 2.5], rows=4, cols=1)
@example(
    pool=[_steps(1e5, -1), -_steps(1e-3, -1), _steps(1e12, -1), 999999999999.4],
    rows=_CHUNK_ROWS + 1,
    cols=3,
)
def test_writers_match_per_number_reference_on_adversarial_floats(pool, rows, cols):
    pts = np.resize(np.array(pool, dtype=float), (rows, cols))
    assert xyz_text(pts) == _reference_xyz(pts)
    normals = -pts if cols == 3 else None
    mesh = EnvelopeMesh(vertices=pts, normals=normals, faces=None, name="adversarial")
    if cols < 3:  # a v record holds x y z: the OBJ writer refuses fewer columns
        with pytest.raises(DomainError, match="mesh vertices have shape"):
            obj_text(mesh)
    else:
        assert obj_text(mesh) == _reference_obj(mesh)


def test_scene_ref_meshes_match_per_number_reference():
    scene_ref = Path(__file__).resolve().parents[1] / "bench" / "scene_ref.json"
    scene = json.loads(scene_ref.read_text())
    meshed = [f for f in scene["families"] if "envelope" in f["analyses"]]
    assert "r4-circle" in {f["name"] for f in meshed}
    for entry in meshed:
        family = make_family(entry["name"], entry.get("params"))
        mesh = envelope_mesh(family, t_count=32, angle_count=8, name=entry["name"])
        assert obj_text(mesh) == _reference_obj(mesh), entry["name"]


# ---------------------------------------------------------------------------
# command line


def _write_scene(tmp_path, scene):
    path = tmp_path / "scene.json"
    path.write_text(json.dumps(scene))
    return str(path)


def test_cli_run_smoke(tmp_path, capsys):
    path = _write_scene(tmp_path, _rich_scene())
    out = tmp_path / "out"
    assert main(["run", path, "--out", str(out)]) == 0
    msg = capsys.readouterr().out
    assert "5 entries, 0 errors" in msg
    assert (out / "report.json").exists()


def test_cli_run_respects_env_out(tmp_path, capsys, monkeypatch):
    scene = {"version": 1, "pencils": _rich_scene()["pencils"]}
    path = _write_scene(tmp_path, scene)
    out = tmp_path / "env_out"
    monkeypatch.setenv("CANALGEO_OUT", str(out))
    assert main(["run", path]) == 0
    assert (out / "report.json").exists()


def test_cli_run_grid_and_tol_overrides(tmp_path, capsys):
    scene = {
        "version": 1,
        "families": [{"name": "circle-tube", "analyses": ["envelope"]}],
    }
    path = _write_scene(tmp_path, scene)
    out = tmp_path / "out"
    argv = ["run", path, "--out", str(out), "--grid", "mesh_t=10", "--grid", "mesh_angle=5"]
    assert main(argv + ["--tol", "dupin=2e-7"]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["provenance"]["grids"]["mesh_t"] == 10
    assert report["provenance"]["grids"]["family_samples"] == DEFAULT_GRIDS["family_samples"]
    assert report["provenance"]["tolerances"]["dupin"] == 2e-7
    assert report["provenance"]["tolerances"]["canal"] == DEFAULT_TOLERANCES.canal
    env = report["results"]["families"][0]["analyses"]["envelope"]
    assert env["vertices"] == 50


@pytest.mark.parametrize(
    "override, field",
    [
        (["--tol", "canal=-1"], "tolerances.canal"),
        (["--tol", "canal=nan"], "tolerances.canal"),
        (["--grid", "surface_samples=0"], "grids.surface_samples"),
    ],
)
def test_cli_validates_overridden_scene(tmp_path, capsys, override, field):
    path = _write_scene(tmp_path, _rich_scene())
    out = tmp_path / "never"
    assert main(["run", path, "--out", str(out)] + override) == 2
    diags = json.loads(capsys.readouterr().out)
    assert [(d["entry"], d["field"]) for d in diags] == [("scene", field)]
    assert not out.exists()


def test_a_grid_beyond_the_float_range_is_refused_by_validation(tmp_path, capsys):
    # one rule with the grids of the analyses, which refuse the same count with a DomainError
    scene = {"version": 1, "grids": {"surface_samples": 10**400}, "surfaces": [{"name": "sphere"}]}
    message = "grid size must be within the float range"
    want = [{"entry": "scene", "field": "grids.surface_samples", "message": message}]
    assert _diagnostics(scene) == want
    with pytest.raises(DomainError, match="grid cell counts must be within the float range"):
        detect_canal(make_surface("sphere"), counts=10**400)
    path = _write_scene(tmp_path, scene)
    out = tmp_path / "never"
    for argv in (["validate", path], ["run", path, "--out", str(out)]):
        assert main(argv) == 2
        assert json.loads(capsys.readouterr().out) == want
    assert not out.exists()


def test_frame_residual_is_no_tolerance(tmp_path, capsys):
    # only gauge_frame read it, and no scene analysis calls gauge_frame
    scene = {"version": 1, "tolerances": {"frame_residual": 1e-8}}
    field, message = "tolerances.frame_residual", "unknown tolerance name"
    assert _diagnostics(scene) == [{"entry": "scene", "field": field, "message": message}]
    path = _write_scene(tmp_path, {"version": 1})
    argv = ["run", path, "--out", str(tmp_path / "never"), "--tol", "frame_residual=1e-8"]
    assert main(argv) == 2
    assert "unknown tolerance 'frame_residual'" in capsys.readouterr().err
    assert not (tmp_path / "never").exists()


def test_cli_rejects_bad_override(tmp_path, capsys):
    path = _write_scene(tmp_path, {"version": 1})
    assert main(["run", path, "--tol", "bogus=1"]) == 2
    assert main(["run", path, "--grid", "mesh_t"]) == 2


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_cli_rejects_jobs_below_one(tmp_path, capsys, jobs):
    path = _write_scene(tmp_path, _rich_scene())
    out = tmp_path / "never"
    assert main(["run", path, "--out", str(out), "--jobs", jobs]) == 2
    assert f"--jobs must be at least 1, got {jobs}" in capsys.readouterr().err
    assert not out.exists()


def test_cli_runs_every_entry_in_the_calling_process(tmp_path, monkeypatch):
    original = scene_module._run_pencil

    def recording(entry, label, spec):
        return dict(original(entry, label, spec), pid=os.getpid())

    monkeypatch.setattr(scene_module, "_run_pencil", recording)
    pencil = _rich_scene()["pencils"][0]
    path = _write_scene(tmp_path, {"version": 1, "pencils": [pencil, pencil]})
    out = tmp_path / "out"
    assert main(["run", path, "--out", str(out), "--jobs", "2"]) == 0
    report = json.loads((out / "report.json").read_text())
    assert [r["pid"] for r in report["results"]["pencils"]] == [os.getpid()] * 2


def test_cli_run_builds_each_surface_and_family_once(tmp_path, monkeypatch):
    built = []
    for name in ("make_surface", "make_family"):
        original = getattr(scene_module, name)

        def counted(catalog_name, params, original=original):
            built.append(catalog_name)
            return original(catalog_name, params)

        monkeypatch.setattr(scene_module, name, counted)
    path = _write_scene(tmp_path, _rich_scene())
    assert main(["run", path, "--out", str(tmp_path / "out")]) == 0
    assert built == ["torus", "circle-tube", "circle-tube"]


def test_cli_validate_exit_codes(tmp_path, capsys):
    good = _write_scene(tmp_path, _rich_scene())
    assert main(["validate", good]) == 0
    assert json.loads(capsys.readouterr().out) == []

    bad_scene = _rich_scene()
    bad_scene["surfaces"][0]["name"] = "klein-bottle"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(bad_scene))
    assert main(["validate", str(bad)]) == 2
    diags = json.loads(capsys.readouterr().out)
    assert any(d["entry"] == "surfaces[0]" for d in diags)
    assert _diagnostics(bad_scene) == diags

    # run refuses to execute an invalid scene
    assert main(["run", str(bad), "--out", str(tmp_path / "never")]) == 2
    assert not (tmp_path / "never").exists()

    # a sampled family whose data is not an object is a diagnostic, not a crash
    capsys.readouterr()
    listed = _rich_scene()
    listed["families"] = [{"name": "sampled", "data": [1, 2, 3]}]
    listed_path = _write_scene(tmp_path, listed)
    assert main(["validate", listed_path]) == 2
    diags = json.loads(capsys.readouterr().out)
    assert {(d["entry"], d["field"]) for d in diags} == {("families[0]", "params")}
    assert _diagnostics(listed) == diags
    assert main(["run", listed_path, "--out", str(tmp_path / "never")]) == 2
    assert not (tmp_path / "never").exists()


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_a_non_finite_catalog_parameter_is_named(value):
    for make, name, key in ((make_surface, "sphere", "radius"), (make_family, "circle-tube", "rho")):
        named = re.escape(f"parameter {key!r} must be finite, got {value}")
        with pytest.raises(DomainError, match=named):
            make(name, {key: value})


def test_cli_validate_rejects_an_infinite_parameter(tmp_path, capsys):
    scene = {"version": 1, "surfaces": [{"name": "sphere", "params": {"radius": math.inf}}]}
    assert main(["validate", _write_scene(tmp_path, scene)]) == 2
    message = "parameter 'radius' must be finite, got inf"
    diags = json.loads(capsys.readouterr().out)
    assert diags == [{"entry": "surfaces[0]", "field": "params", "message": message}]
    assert _diagnostics(scene) == diags


@pytest.mark.parametrize(
    "value",
    ["inf", "nan", "2", True, None, [1.0], 10**400],
    ids=["str-inf", "str-nan", "str-2", "bool", "none", "list", "int-1e400"],
)
def test_a_catalog_parameter_that_is_no_finite_number_is_named(value):
    # a string, a bool or a list is refused by its type, not cast; an int beyond
    # the float range is not finite
    word = "finite" if isinstance(value, int) and not isinstance(value, bool) else "a number"
    for make, name, key in ((make_surface, "sphere", "radius"), (make_family, "circle-tube", "rho")):
        with pytest.raises(DomainError, match=rf"parameter {key!r} must be {word}, got "):
            make(name, {key: value})
    # the sample-data entries keep their lists and their name string
    assert make_family("sampled", {**_sampled_r4_data(), "name": "ring"}).name == "ring"


_HUGE = 10**400  # a JSON integer beyond the float range


def _sampled_with_radius(radius):
    data = {"t": [0.0, 1.0, 2.0, 3.0], "centers": [[k, 0.0, 0.0] for k in range(4)]}
    return {"families": [{"name": "sampled", "data": {**data, "radii": [0.5, radius, 0.5, 0.5]}}]}


@pytest.mark.parametrize(
    "section, entry, field",
    [
        ({"tolerances": {"canal": _HUGE}}, "scene", "tolerances.canal"),
        (_sampled_with_radius(_HUGE), "families[0]", "data.radii"),
        (
            {"pencils": [{"spheres": [{"center": [0, 0, 0], "radius": _HUGE},
                                      {"center": [1, 0, 0], "radius": 1}]}]},
            "pencils[0]",
            "spheres[0].radius",
        ),
        ({"planes": [{"vectors": [[_HUGE, 0, 0, 0, 0], [0] * 5, [0] * 5]}]}, "planes[0]", "vectors"),
    ],
    ids=["tolerance", "sampled-radius", "pencil-radius", "plane-entry"],
)
def test_an_integer_beyond_the_float_range_is_named(tmp_path, capsys, section, entry, field):
    scene = {"version": 1, **section}
    assert (entry, field) in {(d["entry"], d["field"]) for d in _diagnostics(scene)}
    assert main(["validate", _write_scene(tmp_path, scene)]) == 2
    captured = capsys.readouterr()
    assert any(d["field"] == field for d in json.loads(captured.out))
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("k", [1.0, 1e3, 1e-3])
def test_singular_csv_column_is_the_darboux_curvature(tmp_path, k):
    # D / lam22^2 = (K, K) = (rho kappa)^2 - 1 = 3 on the tube of major k and rho 2k, at every
    # t and every scale; D itself moves with t and scales as 1 / k^2
    family = {"name": "circle-tube", "params": {"major": k, "rho": 2 * k}, "analyses": ["singularities"]}
    report, _, code = run_scene(load_scene({"version": 1, "families": [family]}), tmp_path)
    assert code == 0
    sing = report["results"]["families"][0]["analyses"]["singularities"]
    lines = (tmp_path / sing["file"]).read_text().strip().splitlines()
    assert lines[0].split(",")[1] == "discriminant"
    column = np.array([float(line.split(",")[1]) for line in lines[1:]])
    assert len(column) == DEFAULT_GRIDS["singular_samples"]
    assert np.all(np.abs(column - 3.0) <= 1e-12)


def test_cli_validate_rejects_a_string_parameter(tmp_path, capsys):
    scene = {"version": 1, "families": [{"name": "circle-tube", "params": {"rho": "nan"}}]}
    assert main(["validate", _write_scene(tmp_path, scene)]) == 2
    message = "parameter 'rho' must be a number, got 'nan'"
    diags = json.loads(capsys.readouterr().out)
    assert diags == [{"entry": "families[0]", "field": "params", "message": message}]
    assert _diagnostics(scene) == diags


def test_cli_handles_unreadable_and_malformed_files(tmp_path, capsys):
    assert main(["validate", str(tmp_path / "missing.json")]) == 2
    garbled = tmp_path / "garbled.json"
    garbled.write_text("{not json")
    assert main(["validate", str(garbled)]) == 2


@pytest.mark.parametrize("sub", ["", "sub"], ids=["existing-file", "under-a-file"])
def test_cli_reports_an_unwritable_out_directory(tmp_path, capsys, sub):
    path = _write_scene(tmp_path, {"version": 1, "pencils": _rich_scene()["pencils"]})
    blocker = tmp_path / "blocker"
    blocker.write_text("not a directory")
    assert main(["run", path, "--out", str(blocker / sub)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("cannot write output: ")
    assert blocker.read_text() == "not a directory"


def test_cli_catalog_lists_everything(capsys):
    assert main(["catalog"]) == 0
    out = capsys.readouterr().out
    for name in ("torus", "cylinder", "ellipsoid", "circle-tube", "line-cone", "r4-circle"):
        assert name in out


# ---------------------------------------------------------------------------
# scene-document fuzz

# values a JSON document can hold where a number belongs; the first six are numbers
_ODD_VALUES = [0, -1, 5e-324, 1e-300, 1e30, 1e300, 10**400, "nan", None, [], {}]
_ODD = st.sampled_from(_ODD_VALUES)
_SCALARS = _ODD | st.floats(0.1, 10.0)
_NUMBERS = st.sampled_from(_ODD_VALUES[:6]) | st.floats(0.1, 10.0)
_FUZZ_GRIDS = {
    "surface_samples": 2,
    "family_samples": 4,
    "singular_samples": 4,
    "mesh_t": 4,
    "mesh_angle": 8,
}
_ANALYSES = {"surfaces": scene_module._SURFACE_ANALYSES, "families": scene_module._FAMILY_ANALYSES}
_TYPED = {
    name
    for name, cls in vars(errors).items()
    if isinstance(cls, type) and issubclass(cls, CanalGeoError)
}
_FUZZ_SETTINGS = dict(deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])


def _param_names(doc: str) -> list:
    """The params or data names that a catalog description lists."""
    for head in ("params: ", "data: "):
        if head in doc:
            return doc.split(head)[1].split(", ")
    return []


_CATALOG = {
    "surfaces": {name: _param_names(doc) for name, doc in surface_catalog().items()},
    "families": {name: _param_names(doc) for name, doc in family_catalog().items()},
}


def _catalog_entry(key: str, values, analyses=st.nothing()):
    """An entry of section ``key``: a catalog name, maybe some of its params, each drawn
    from ``values``, and maybe ``analyses``."""

    def entry(name):
        params = st.fixed_dictionaries({}, optional=dict.fromkeys(_CATALOG[key][name], values))
        optional = {"params": params, "analyses": analyses}
        return st.fixed_dictionaries({"name": st.just(name)}, optional=optional)

    return st.sampled_from(sorted(_CATALOG[key])).flatmap(entry)


@st.composite
def _documents(draw):
    """Scene documents with bad sections, bad names and odd values among good ones."""
    doc = {"version": draw(st.sampled_from([1, 1, 2, "1", None]))}
    for key, known in (("tolerances", DEFAULT_TOLERANCES.to_json()), ("grids", DEFAULT_GRIDS)):
        sizes = st.dictionaries(
            st.sampled_from([*known, "bogus"]), _SCALARS | st.integers(1, 3), max_size=2
        )
        if draw(st.booleans()):
            doc[key] = draw(sizes | _ODD)
    for key in ("surfaces", "families"):
        analyses = st.lists(st.sampled_from([*_ANALYSES[key], "frobnicate"]), max_size=2)
        bad_name = st.fixed_dictionaries({"name": st.sampled_from(["klein-bottle", 7, None])})
        entry = _catalog_entry(key, _SCALARS, analyses) | bad_name | _ODD
        doc[key] = draw(st.lists(entry, max_size=2) | _ODD)
    sphere = st.fixed_dictionaries({"center": st.lists(_SCALARS, max_size=3), "radius": _SCALARS})
    pencil = st.fixed_dictionaries({"spheres": st.lists(sphere | _ODD, min_size=1, max_size=3)})
    vectors = st.lists(st.lists(_SCALARS, min_size=5, max_size=5), min_size=3, max_size=3)
    plane = st.fixed_dictionaries({"vectors": vectors | _ODD})
    doc["pencils"] = draw(st.lists(pencil | _ODD, max_size=2) | _ODD)
    doc["planes"] = draw(st.lists(plane | _ODD, max_size=1) | _ODD)
    if draw(st.booleans()):
        doc["extras"] = True
    return doc


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=150, **_FUZZ_SETTINGS)
@given(doc=_documents())
def test_fuzzed_scene_documents_are_diagnosed(tmp_path, capsys, doc):
    # validate_scene returns diagnostics, which load_scene raises, and never raises itself
    diags = validate_scene(doc)
    for d in diags:
        assert set(d) == {"entry", "field", "message"}
        assert all(isinstance(v, str) for v in d.values())
    if diags:
        assert _diagnostics(doc) == diags
    else:
        assert isinstance(load_scene(doc), scene_module.SceneSpec)
    capsys.readouterr()
    assert main(["validate", _write_scene(tmp_path, doc)]) == (2 if diags else 0)
    captured = capsys.readouterr()
    assert json.loads(captured.out) == diags and "Traceback" not in captured.err


def _fuzz_scene(surfaces=(), families=()) -> dict:
    """A scene of these entries with every analysis, at grids too small to allocate much."""
    doc = {"version": 1, "grids": dict(_FUZZ_GRIDS)}
    for key, entries in (("surfaces", surfaces), ("families", families)):
        doc[key] = [{**e, "analyses": list(_ANALYSES[key])} for e in entries]
    return doc


@st.composite
def _valid_documents(draw):
    """Scenes of catalog entries that the checks accept, their params drawn from odd numbers."""
    sections = {}
    for key in ("surfaces", "families"):
        entries = draw(st.lists(_catalog_entry(key, _NUMBERS), max_size=2))
        sections[key] = [e for e in entries if validate_scene({"version": 1, key: [e]}) == []]
    return _fuzz_scene(**sections)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=100, **_FUZZ_SETTINGS)
@given(doc=_valid_documents())
@example(doc=_fuzz_scene(surfaces=[{"name": "ellipsoid", "params": {"a": 0.3, "b": 1e30}}]))
@example(doc=_fuzz_scene(surfaces=[{"name": "sphere", "params": {"radius": 5e-324}}]))
def test_fuzzed_valid_scenes_fail_only_with_typed_errors(tmp_path, doc):
    # an entry that fails is an error entry of a CanalGeoError type, with no warning
    report, _, code = run_scene(load_scene(doc), tmp_path / "out")
    assert code in (0, 1)
    for result in (r for results in report["results"].values() for r in results):
        assert result.get("error", {"type": "CanalGeoError"})["type"] in _TYPED, result
