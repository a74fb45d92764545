"""Cold import: neither the package nor its CLI loads SymPy or SciPy."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import canalgeo

SRC = str(Path(canalgeo.__file__).resolve().parents[1])


@pytest.mark.parametrize("module", ["canalgeo.cli", "canalgeo"])
def test_import_loads_neither_sympy_nor_scipy(module):
    code = (
        f"import sys, {module}; "
        "print(sorted({m.split('.')[0] for m in sys.modules} & {'sympy', 'scipy'}))"
    )
    path = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    env = dict(os.environ, PYTHONPATH=path)
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert done.stdout.strip() == "[]"
