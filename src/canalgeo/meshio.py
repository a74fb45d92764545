"""Deterministic writers for meshes, singular loci, and point clouds.

Each writer (`write_obj`, `write_singular_csv`, `write_xyz`) streams its file
into an open binary file, chunk by chunk, so no file is ever whole in memory;
`obj_text`, `singular_csv_text` and `xyz_text` are the in-memory form, the
same writer into an ``io.BytesIO``.  The bytes are ASCII, apart from mesh
names and CSV error text, which are UTF-8.  Each float is printed as
``'%.12g' % x``, with ``-0.0`` printed as ``0`` (`format_number`), so
identical inputs give byte-identical files.

OBJ and XYZ numbers go through one NumPy kernel, `_number_words`, with no
Python step per number.  For x != 0 it takes k = 11 - floor(log10|x|) and
m = |x| * 10**k.  For 0 <= k <= 22 the power of ten is an exact double, so m
is the true product rounded once; below 1e12 < 2**40 that is within 2**-14.
When m lies in [1e11, 1e12 - 1) and its fractional part is more than 1e-3
away from 1/2, the true product rounds to the same integer, so
floor(m + 0.5) is the 12-digit mantissa that ``%.12g`` prints.  Every other
number takes the exact path, `format_number` one number at a time: zero, nan,
+-inf, k outside 0..22 (|x| below about 1e-11 or from 1e12 up), a near-tie,
a mantissa that would round up to 13 digits, or a log10 that landed one
decade off.  The bytes therefore never depend on
the float arithmetic of the fast path.

The text is built from tables.  Each number is four NUL-padded little-endian
uint64 words: sign and ``0.000`` prefix, two words of digits from a 4-digit
ASCII table with the trailing fractional zeros masked to NUL and the decimal
point inserted by a byte shift, and the ``e-05`` suffix with the separator.
Prefix, point position and suffix are looked up by k.  OBJ face indices
(below 10**12) use the same digit table with their leading zeros masked.  A
chunk of rows becomes text by one ``bytes.translate`` that deletes the NULs.

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
from typing import BinaryIO, Iterable

import numpy as np

from .envelope import EnvelopeMesh

__all__ = [
    "format_number",
    "obj_text",
    "singular_csv_text",
    "write_obj",
    "write_singular_csv",
    "write_xyz",
    "xyz_text",
]


def format_number(x: float) -> str:
    """Fixed decimal rendering: 12 significant digits, no trailing zeros."""
    return "0" if x == 0 else f"{float(x):.12g}"


_CHUNK_ROWS = 8192
_U64 = np.dtype("<u8")


def _words(texts: Iterable[str], width: int = 8) -> np.ndarray:
    """Each text NUL-padded to ``width`` bytes, as a row of uint64 words."""
    data = b"".join(t.encode().ljust(width, b"\0") for t in texts)
    return np.frombuffer(data, _U64).reshape(-1, width // 8)


_QUAD = np.arange(10000)
# the ASCII digits of 0000..9999, the first digit in the low byte
_DIGITS = sum((48 + _QUAD // 10 ** (3 - j) % 10) << 8 * j for j in range(4)).astype(_U64)
# the trailing zeros of 0000..9999 (4 for 0000)
_TRAILING = sum(_QUAD % 10**j == 0 for j in range(1, 5))
del _QUAD
# _LOW[j] keeps the low j bytes of a word
_LOW = np.array([(1 << 8 * j) - 1 for j in range(9)], dtype=_U64)
_POW10 = np.array([float(10**k) for k in range(23)])
# By k = 11 - exponent: the digits before the decimal point (0: the point is
# in the prefix), the prefix for x > 0 and for x < 0, and the exponent suffix.
_POINT = np.array([12 - k if k < 12 else 0 if k < 16 else 1 for k in range(23)])
_PREFIX = _words(
    sign + ("0." + "0" * (k - 12) if 12 <= k < 16 else "") for sign in ("", "-") for k in range(23)
).reshape(2, 23)
_SUFFIX = _words(f"e-{k - 11:02d}" if k >= 16 else "" for k in range(23)).ravel()
_SUFFIX_BITS = np.array([32 if k >= 16 else 0 for k in range(23)], dtype=_U64)


def _line_seps(cols: int) -> np.ndarray:
    """Separator bytes of a line of ``cols`` items: spaces, then a newline."""
    seps = np.full(cols, ord(" "), _U64)
    seps[-1:] = ord("\n")
    return seps


def _digits(n: np.ndarray):
    """The 12 ASCII digits of integers 0 <= n < 10**12 as two words (the
    first 8, the last 4), and the trailing zero count of n."""
    high, low4 = np.divmod(n, 10000)
    top4, mid4 = np.divmod(high, 10000)
    zeros = _TRAILING[low4] + (low4 == 0) * (_TRAILING[mid4] + (mid4 == 0) * _TRAILING[top4])
    return _DIGITS[top4] | (_DIGITS[mid4] << np.uint64(32)), _DIGITS[low4], zeros


def _number_words(x: np.ndarray) -> np.ndarray:
    """A (rows, cols) float array as lines of ``format_number`` values, four
    NUL-padded words per number, shape (rows, 4 * cols)."""
    with np.errstate(all="ignore"):
        mag = np.abs(x)
        k = 11 - np.floor(np.log10(mag))
        fast = (k >= 0) & (k <= 22)
        k = np.where(fast, k, 0).astype(np.intp)
        m = mag * _POW10[k]
        fast &= (m >= 1e11) & (m < 1e12 - 1) & (np.abs(m - np.floor(m) - 0.5) > 1e-3)
        lo, hi, zeros = _digits(np.where(fast, np.floor(m + 0.5), 1e11).astype(np.int64))
    point = _POINT[k]
    keep = np.maximum(12 - zeros, point)
    lo &= _LOW[np.minimum(keep, 8)]
    hi &= _LOW[np.maximum(keep - 8, 0)]
    # "." goes in at byte ``point`` of the digits; the bytes from there up
    # move one byte higher, across from the first word if ``point`` < 8
    dot = (keep > point) & (point > 0)
    upper = point >= 8
    word = np.where(upper, hi, lo)
    below = _LOW[point % 8]
    word = (
        (word & below)
        | (np.uint64(ord(".")) << (point % 8 * 8).astype(_U64))
        | ((word & ~below) << np.uint64(8))
    )
    sep = _line_seps(x.shape[1])
    out = np.empty(x.shape + (4,), _U64)
    out[..., 0] = _PREFIX[(x < 0).astype(np.intp), k]
    out[..., 1] = np.where(dot & ~upper, word, lo)
    carried = (hi << np.uint64(8)) | (lo >> np.uint64(56))
    out[..., 2] = np.where(dot, np.where(upper, word, carried), hi)
    out[..., 3] = _SUFFIX[k] | (sep << _SUFFIX_BITS[k])
    exact = ~fast
    if exact.any():
        out[exact, :3] = _words(map(format_number, x[exact].tolist()), 24)
        out[exact, 3] = np.broadcast_to(sep, x.shape)[exact]
    return out.reshape(x.shape[0], -1)


def _face_words(refs: np.ndarray) -> np.ndarray:
    """(faces, 3) 1-based vertex indices below 10**12 as the ``a//a b//b
    c//c`` lines of OBJ face records, four NUL-padded words per index."""
    lo, hi, _ = _digits(refs)
    lead = 12 - np.searchsorted(_POW10, refs, side="right")
    lo &= ~_LOW[np.minimum(lead, 8)]
    hi &= ~_LOW[np.maximum(lead - 8, 0)]
    out = np.empty(refs.shape + (4,), _U64)
    out[..., 0] = out[..., 2] = lo
    out[..., 1] = hi | np.uint64(0x2F2F << 32)  # "//"
    out[..., 3] = hi | (_line_seps(3) << np.uint64(32))
    return out.reshape(refs.shape[0], -1)


def _write_lines(fh: BinaryIO, tag: str, rows: np.ndarray, render) -> None:
    """Write ``render(rows)`` chunk by chunk, each line led by ``tag``."""
    head = _words([tag])
    for start in range(0, rows.shape[0], _CHUNK_ROWS):
        body = render(rows[start : start + _CHUNK_ROWS])
        lines = np.hstack([np.broadcast_to(head, (body.shape[0], 1)), body])
        fh.write(lines.tobytes().translate(None, b"\0"))


def _in_memory(write, *args) -> bytes:
    """The bytes that ``write(fh, *args)`` streams into a file."""
    buf = io.BytesIO()
    write(buf, *args)
    return buf.getvalue()


def write_obj(fh: BinaryIO, mesh: EnvelopeMesh) -> None:
    """Write a mesh as ASCII OBJ with vertex normals."""
    if mesh.name:
        fh.write(f"o {mesh.name}\n".encode())
    _write_lines(fh, "v ", mesh.vertices[:, :3], _number_words)
    _write_lines(fh, "vn ", mesh.normals[:, :3], _number_words)
    if mesh.faces is not None:
        _write_lines(fh, "f ", np.asarray(mesh.faces, dtype=np.int64) + 1, _face_words)


def obj_text(mesh: EnvelopeMesh) -> bytes:
    """The bytes of `write_obj`."""
    return _in_memory(write_obj, mesh)


def write_singular_csv(fh: BinaryIO, rows: Iterable[dict]) -> None:
    """Write the CSV of a series of singular-point samples, a line at a time.

    Each row dict carries t, discriminant, count, points (list of length-3
    sequences, at most 2 used), and optional error text.
    """
    fh.write(b"t,discriminant,count,p1_x,p1_y,p1_z,p2_x,p2_y,p2_z,error\n")
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
        fh.write((",".join(cells) + "\n").encode())


def singular_csv_text(rows: Iterable[dict]) -> bytes:
    """The bytes of `write_singular_csv`."""
    return _in_memory(write_singular_csv, rows)


def write_xyz(fh: BinaryIO, points: np.ndarray) -> None:
    """Write a point cloud, one ``x y z`` line per point (nothing if empty)."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.size:
        _write_lines(fh, "", pts, _number_words)


def xyz_text(points: np.ndarray) -> bytes:
    """The bytes of `write_xyz`."""
    return _in_memory(write_xyz, points)
