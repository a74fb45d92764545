"""Scene validation, batch execution, deterministic writers, and the CLI."""

import json
import math
import multiprocessing
import os
import re
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from canalgeo import DEFAULT_TOLERANCES, CanalGeoError, scene as scene_module
from canalgeo.cli import main
from canalgeo.envelope import EnvelopeMesh
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


def test_validate_accepts_rich_scene():
    assert validate_scene(_rich_scene()) == []


def test_validate_rejects_non_object():
    diags = validate_scene([1, 2, 3])
    assert len(diags) == 1 and "object" in diags[0]["message"]


def test_validate_names_bad_pencil_radius():
    scene = _rich_scene()
    scene["pencils"][0]["spheres"][1]["radius"] = -1.0
    diags = validate_scene(scene)
    assert any(
        d["entry"] == "pencils[0]" and d["field"] == "spheres[1].radius" for d in diags
    )


def test_validate_names_unknown_catalog_entries():
    scene = {
        "version": 1,
        "surfaces": [{"name": "klein-bottle"}],
        "families": [{"name": "trefoil"}],
    }
    diags = validate_scene(scene)
    fields = {(d["entry"], d["field"]) for d in diags}
    assert ("surfaces[0]", "name") in fields
    assert ("families[0]", "name") in fields


def test_validate_rejects_unknown_analysis_and_fields():
    scene = _rich_scene()
    scene["surfaces"][0]["analyses"] = ["frobnicate"]
    scene["extras"] = True
    scene["grids"]["mesh_t"] = -3
    scene["tolerances"] = {"nonsense": 1e-3, "canal": -1.0}
    diags = validate_scene(scene)
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
    diags = validate_scene(scene)
    fields = {(d["entry"], d["field"]) for d in diags}
    assert ("scene", "version") in fields
    assert ("families[0]", "data.radii") in fields


def test_validate_rejects_bad_surface_params():
    scene = {"version": 1, "surfaces": [{"name": "torus", "params": {"major": -1.0}}]}
    diags = validate_scene(scene)
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
    diags = validate_scene(scene)
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
        ],
    }
    assert validate_scene(scene) == []
    spec = load_scene(scene)
    report, _, code = run_scene(spec, tmp_path)
    assert code == 1
    assert report["error_count"] == 1
    failed = report["results"]["families"][0]
    assert "error" in failed and "r = 1" in failed["error"]["message"]
    # the healthy entry still ran
    assert report["results"]["families"][1]["analyses"]["causal"]["verdict"] == "canal"


def _strip_timestamp(text: str) -> str:
    return re.sub(r'^\s*"timestamp": .*\n', "", text, flags=re.M)


def test_reports_identical_across_parallel_widths(tmp_path):
    scene = _rich_scene()
    spec = load_scene(scene)
    d1, d8 = tmp_path / "w1", tmp_path / "w8"
    _, written1, code1 = run_scene(spec, d1, jobs=1)
    _, written8, code8 = run_scene(spec, d8, jobs=8)
    assert code1 == code8 == 0
    names1 = sorted(p.rsplit("/", 1)[-1] for p in written1)
    names8 = sorted(p.rsplit("/", 1)[-1] for p in written8)
    assert names1 == names8
    for name in names1:
        t1 = (d1 / name).read_text()
        t8 = (d8 / name).read_text()
        if name == "report.json":
            t1, t8 = _strip_timestamp(t1), _strip_timestamp(t8)
        assert t1 == t8, f"{name} differs between widths 1 and 8"


needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="workers see the test's patches only when forked",
)


def _two_pencil_scene(first_label):
    pencil = _rich_scene()["pencils"][0]
    return {"version": 1, "pencils": [dict(pencil, label=first_label), pencil]}


def _outputs(out_dir):
    """File name -> text of every output, the report's timestamp line dropped."""
    return {p.name: _strip_timestamp(p.read_text()) for p in out_dir.iterdir()}


@needs_fork
def test_parallel_entries_run_in_worker_processes(tmp_path, monkeypatch):
    original = scene_module._run_pencil

    def recording(entry, label, spec):
        return dict(original(entry, label, spec), pid=os.getpid())

    monkeypatch.setattr(scene_module, "_run_pencil", recording)
    spec = load_scene(_two_pencil_scene("a"))
    report, _, code = run_scene(spec, tmp_path / "w2", jobs=2)
    assert code == 0
    pids = {r["pid"] for r in report["results"]["pencils"]}
    assert os.getpid() not in pids
    # width 1, and any width over a single entry, stay in this process
    report, _, _ = run_scene(spec, tmp_path / "w1", jobs=1)
    assert {r["pid"] for r in report["results"]["pencils"]} == {os.getpid()}
    single = load_scene({"version": 1, "pencils": _rich_scene()["pencils"]})
    report, _, _ = run_scene(single, tmp_path / "one", jobs=4)
    assert report["results"]["pencils"][0]["pid"] == os.getpid()


def test_pool_started_from_a_thread_spawns_and_matches_width_one(tmp_path):
    spec = load_scene(_rich_scene())
    run_scene(spec, tmp_path / "w1", jobs=1)
    failure = []

    def run():
        try:
            run_scene(spec, tmp_path / "w2", jobs=2)
        except Exception as err:  # reported below, in the test's thread
            failure.append(err)

    thread = threading.Thread(target=run)
    thread.start()
    thread.join(timeout=120)
    assert not thread.is_alive() and not failure
    assert _outputs(tmp_path / "w1") == _outputs(tmp_path / "w2")


@needs_fork
def test_dead_worker_raises_typed_error_naming_unfinished_entries(tmp_path, monkeypatch):
    parent = os.getpid()
    original = scene_module._run_pencil

    def dying(entry, label, spec):
        if label.startswith("doomed") and os.getpid() != parent:
            os._exit(3)
        return original(entry, label, spec)

    monkeypatch.setattr(scene_module, "_run_pencil", dying)
    spec = load_scene(_two_pencil_scene("doomed"))
    with pytest.raises(CanalGeoError, match="worker process died.*doomed-0"):
        run_scene(spec, tmp_path, jobs=2)


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
    text = singular_csv_text(rows)
    lines = text.strip().splitlines()
    assert lines[0] == "t,discriminant,count,p1_x,p1_y,p1_z,p2_x,p2_y,p2_z,error"
    assert lines[1] == "0.5,0.75,1,1,2,3,,,,"
    assert lines[2] == "1,,,,,,,,,bad; sample"


def test_xyz_text_roundtrip():
    pts = np.array([[1.0, 2.0, 3.0], [-0.5, 0.25, 0.0]])
    text = xyz_text(pts)
    back = np.array([[float(c) for c in line.split()] for line in text.strip().splitlines()])
    assert np.allclose(back, pts)
    assert xyz_text(np.empty((0, 3))) == ""


def _reference_obj(mesh) -> str:
    """OBJ rendered one number at a time with `format_number`."""
    lines = [f"o {mesh.name}"] if mesh.name else []
    for tag, rows in (("v", mesh.vertices), ("vn", mesh.normals)):
        lines += [" ".join([tag] + [format_number(x) for x in row[:3]]) for row in rows]
    if mesh.faces is not None:
        for face in mesh.faces:
            a, b, c = (int(i) + 1 for i in face)
            lines.append(f"f {a}//{a} {b}//{b} {c}//{c}")
    return "".join(line + "\n" for line in lines)


def _reference_xyz(points) -> str:
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.size == 0:
        return ""
    return "".join(" ".join(format_number(x) for x in row) + "\n" for row in pts)


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
@given(data=st.data(), cols=st.sampled_from([2, 3, 4]), with_faces=st.booleans())
def test_obj_text_matches_per_number_reference(data, cols, with_faces):
    verts = data.draw(_tables(cols))
    normals = np.resize(verts[::-1], verts.shape)
    faces = None
    if with_faces:
        count = data.draw(st.sampled_from(_ROW_COUNTS))
        first = data.draw(st.integers(0, 10**6))
        faces = np.arange(first, first + 3 * count, dtype=int).reshape(count, 3) % 1000003
    mesh = EnvelopeMesh(
        vertices=verts,
        normals=normals,
        params=np.zeros((len(verts), 1)),
        faces=faces,
        name=data.draw(st.sampled_from(["", "tube"])),
    )
    assert obj_text(mesh) == _reference_obj(mesh)


@settings(max_examples=40, deadline=None)
@given(data=st.data(), cols=st.sampled_from([1, 3, 4]))
def test_xyz_text_matches_per_number_reference(data, cols):
    pts = data.draw(_tables(cols))
    assert xyz_text(pts) == _reference_xyz(pts)


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


def test_cli_reports_dead_worker_in_one_line(tmp_path, capsys, monkeypatch):
    def dead_pool(spec, out_dir, jobs=1):
        raise CanalGeoError("a scene worker process died; unfinished entries: pencil-0")

    monkeypatch.setattr("canalgeo.cli.run_scene", dead_pool)
    path = _write_scene(tmp_path, _rich_scene())
    assert main(["run", path, "--out", str(tmp_path / "out"), "--jobs", "2"]) == 1
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [
        "run failed: a scene worker process died; unfinished entries: pencil-0"
    ]
    assert captured.out == ""


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
    assert main(["run", listed_path, "--out", str(tmp_path / "never")]) == 2
    assert not (tmp_path / "never").exists()


def test_cli_handles_unreadable_and_malformed_files(tmp_path, capsys):
    assert main(["validate", str(tmp_path / "missing.json")]) == 2
    garbled = tmp_path / "garbled.json"
    garbled.write_text("{not json")
    assert main(["validate", str(garbled)]) == 2


def test_cli_catalog_lists_everything(capsys):
    assert main(["catalog"]) == 0
    out = capsys.readouterr().out
    for name in ("torus", "cylinder", "ellipsoid", "circle-tube", "line-cone", "r4-circle"):
        assert name in out
