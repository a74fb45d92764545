"""Deterministic writers for meshes, singular loci, and point clouds.

All numbers are printed with a fixed shortest-ish format so identical inputs
produce byte-identical files regardless of execution order or parallelism.

File conventions:
  * OBJ: ASCII, ``v`` and ``vn`` records followed by ``f i//i j//j k//k``
    faces (1-based, vertex and normal indices coincide).
  * singular-locus CSV columns, in order:
    t, discriminant, count, p1_x, p1_y, p1_z, p2_x, p2_y, p2_z
    with empty cells where fewer than two points exist; an optional trailing
    ``error`` column carries per-sample failure messages.
  * XYZ point clouds: one ``x y z`` row per point.
"""

from __future__ import annotations

import io
from typing import Iterable

import numpy as np

from .envelope import EnvelopeMesh

__all__ = ["format_number", "obj_text", "singular_csv_text", "xyz_text"]


def format_number(x: float) -> str:
    """Fixed decimal rendering: 12 significant digits, no trailing zeros."""
    if x == 0:
        return "0"
    s = f"{float(x):.12g}"
    return "0" if s in ("-0", "-0.0") else s


_CHUNK_ROWS = 8192
_NUMBER = "%.12g"


def _rows_text(fmt: str, rows: np.ndarray) -> str:
    """``fmt`` applied to every row of a 2-D array, one ``%`` per row chunk.

    ``+ 0`` turns ``-0.0`` into ``0`` the way `format_number` does and leaves
    integer arrays alone.  Chunking bounds the temporary Python objects.
    """
    parts = []
    for start in range(0, rows.shape[0], _CHUNK_ROWS):
        chunk = rows[start : start + _CHUNK_ROWS] + 0
        parts.append((fmt * chunk.shape[0]) % tuple(chunk.ravel().tolist()))
    return "".join(parts)


def obj_text(mesh: EnvelopeMesh) -> str:
    """Render a mesh as ASCII OBJ with vertex normals."""
    coords = " ".join([_NUMBER] * min(mesh.vertices.shape[1], 3))
    parts = [
        f"o {mesh.name}\n" if mesh.name else "",
        _rows_text(f"v {coords}\n", mesh.vertices[:, :3]),
        _rows_text(f"vn {coords}\n", mesh.normals[:, :3]),
    ]
    if mesh.faces is not None:
        refs = np.repeat(mesh.faces + 1, 2, axis=1)
        parts.append(_rows_text("f %d//%d %d//%d %d//%d\n", refs))
    return "".join(parts)


def singular_csv_text(rows: Iterable[dict]) -> str:
    """CSV for a series of singular-point samples.

    Each row dict carries t, discriminant, count, points (list of length-3
    sequences, at most 2 used), and optional error text.
    """
    buf = io.StringIO()
    buf.write("t,discriminant,count,p1_x,p1_y,p1_z,p2_x,p2_y,p2_z,error\n")
    for row in rows:
        cells = [format_number(row["t"])]
        if row.get("error"):
            cells += [""] * 8 + [str(row["error"]).replace(",", ";")]
        else:
            cells.append(format_number(row["discriminant"]))
            cells.append(str(int(row["count"])))
            pts = list(row.get("points", []))[:2]
            for i in range(2):
                if i < len(pts):
                    cells.extend(format_number(c) for c in pts[i][:3])
                else:
                    cells.extend(["", "", ""])
            cells.append("")
        buf.write(",".join(cells) + "\n")
    return buf.getvalue()


def xyz_text(points: np.ndarray) -> str:
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.size == 0:
        return ""
    return _rows_text(" ".join([_NUMBER] * pts.shape[1]) + "\n", pts)
