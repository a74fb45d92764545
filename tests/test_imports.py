"""Cold imports load neither SymPy nor SciPy; sampled families and singular points load no SciPy."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import canalgeo

SRC = str(Path(canalgeo.__file__).resolve().parents[1])


def _env():
    path = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    return dict(os.environ, PYTHONPATH=path)


@pytest.mark.parametrize("module", ["canalgeo.cli", "canalgeo"])
def test_import_loads_neither_sympy_nor_scipy(module):
    code = (
        f"import sys, {module}; "
        "print(sorted({m.split('.')[0] for m in sys.modules} & {'sympy', 'scipy'}))"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], env=_env(), capture_output=True, text=True, check=True
    )
    assert done.stdout.strip() == "[]"


def test_run_with_sampled_family_loads_no_scipy(tmp_path):
    t = [0.4 * k for k in range(16)]
    scene = {
        "version": 1,
        "grids": {"family_samples": 8, "singular_samples": 4},
        "families": [
            {
                "name": "sampled",
                "data": {
                    "t": t,
                    "centers": [[2.0 * math.cos(x), 2.0 * math.sin(x), 0.1 * x] for x in t],
                    "radii": [0.5 + 0.05 * math.sin(x) for x in t],
                },
                "analyses": ["causal", "singularities"],
            }
        ],
    }
    path = tmp_path / "scene.json"
    path.write_text(json.dumps(scene))
    code = (
        "import sys; from canalgeo.cli import main; "
        f"code = main(['run', {str(path)!r}, '--out', {str(tmp_path / 'out')!r}]); "
        "print(code, sorted({m.split('.')[0] for m in sys.modules} & {'scipy'}))"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], env=_env(), capture_output=True, text=True, check=True
    )
    assert done.stdout.strip().splitlines()[-1] == "0 []"


def test_singular_points_and_oracle_load_no_scipy():
    code = (
        "import sys; import canalgeo as cg; "
        "fam = cg.make_family('circle-tube', {'major': 1.0, 'rho': 2.0}); "
        "rep = cg.singular_set(cg.adapted_frame_coefficients(fam, 0.3)); "
        "oracle = cg.rank_drop_singular_points(fam, 0.3); "
        "print(rep.count, oracle.count, sorted({m.split('.')[0] for m in sys.modules} & {'scipy'}))"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], env=_env(), capture_output=True, text=True, check=True
    )
    assert done.stdout.strip() == "2 2 []"
