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
When m lies in [1e11, 1e12 - 1) and within 0.499 of the nearest integer
floor(m + 0.5), the true product rounds to the same integer, so that is the
12-digit mantissa that ``%.12g`` prints.  Every other number takes the exact
path, `format_number` one number at a time: zero, nan, +-inf, k outside
0..22 (|x| below about 1e-11 or from 1e12 up), a near-tie, a mantissa that
would round up to 13 digits, or a log10 that landed one decade off.  The
bytes therefore never depend on the float arithmetic of the fast path.

The text is built from tables, three NUL-padded little-endian uint64 words
per number.  Word 0 holds the sign byte and the ``0.000`` prefix of
1e-4 <= |x| < 1.  The 12 digits come from a 4-digit ASCII table, get the
decimal point by a byte shift and lose their trailing zeros to a mask; they
start at byte 6 behind a prefix and at byte 1 otherwise, and the ``e-05``
suffix follows in word 2.  Point, masks, prefix and suffix are looked up
by k and the trailing zero count.  Bytes 4 to 7 of the last word hold the
separator: a space, or a newline and the next line's tag (``v``, ``vn``,
``f``), so a line takes no word of its own; the writer puts the first tag
ahead and cuts the last.  OBJ face indices (below 10**12) use the same digit
table with their leading zeros masked, four words an index.  A chunk of rows
becomes text by one ``bytes.translate`` that deletes the NULs.

File conventions:
  * OBJ: ASCII, ``v`` records of (x1, x2, x3), then, for a mesh with
    normals, ``vn`` records and ``f i//i j//j k//k`` faces (1-based, vertex
    and normal indices coincide), and for a mesh without, ``f i j k`` faces.
    Only n = 3 envelopes have normals; an n >= 4 envelope has neither normals
    nor faces, and the scene writes its exact vertices beside the OBJ's
    projection as a ``.npy`` array.
  * singular-locus CSV columns, in order:
    t, discriminant, count, p1_x, p1_y, p1_z, p2_x, p2_y, p2_z
    with empty cells where fewer than two points exist; an optional trailing
    ``error`` column carries per-sample failure messages.
  * XYZ point clouds: one ``x y z`` row per point.
"""

from __future__ import annotations

import io
from functools import partial
from typing import BinaryIO, Iterable

import numpy as np

from .envelope import EnvelopeMesh
from .errors import DomainError

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
_ALL = (1 << 64) - 1


def _word(text: str, at: int = 0) -> int:
    """The word holding ``text`` from byte ``at`` on."""
    return int.from_bytes(text.encode(), "little") << 8 * at


def _low(nbytes: int) -> int:
    """The word with its low ``nbytes`` bytes set (none below 0, all from 8)."""
    return (1 << 8 * min(max(nbytes, 0), 8)) - 1


def _words(texts: Iterable[str], width: int = 8) -> np.ndarray:
    """Each text NUL-padded to ``width`` bytes, as a row of uint64 words."""
    data = b"".join(t.encode().ljust(width, b"\0") for t in texts)
    return np.frombuffer(data, _U64).reshape(-1, width // 8)


def _table(values) -> np.ndarray:
    """The words ``values`` as a uint64 array."""
    return np.array(list(values), _U64)


_QUAD = np.arange(10000)
# the ASCII digits of 0000..9999, the first digit in the low byte
_DIGITS = sum((48 + _QUAD // 10 ** (3 - j) % 10) << 8 * j for j in range(4)).astype(_U64)
_DIGITS_HI = _DIGITS << np.uint64(32)
# the trailing zeros of 0000..9999 (4 for 0000)
_TRAILING = sum(_QUAD % 10**j == 0 for j in range(1, 5))
del _QUAD
_POW10 = np.array([float(10**k) for k in range(23)])

# Tables by k = 11 - exponent.  _P[k] is the number of digits before the
# decimal point: 0 where the point is in the 0.000 prefix (1e-4 <= |x| < 1)
# and 1 in exponent form (|x| < 1e-4).
_K = range(23)
_P = [12 - k if k < 12 else 0 if k < 16 else 1 for k in _K]
# the bytes from the point on in the first and the last digit word (none
# where no point goes in), and the point itself
_ABOVE_LO = _table(_ALL ^ _low(p) if p else 0 for p in _P)
_ABOVE_HI = _table(_ALL ^ _low(p - 8) if p else 0 for p in _P)
_DOT_LO = _table(_word(".", p) if 0 < p < 8 else 0 for p in _P)
_DOT_HI = _table(_word(".", p - 8) if p >= 8 else 0 for p in _P)
# the prefix after the sign byte, the shift that puts the digits at byte 6
# behind a prefix and at byte 1 otherwise, and the exponent suffix in word 2
_PREFIX = _table(_word("0." + "0" * (k - 12), 1) if 12 <= k < 16 else 0 for k in _K)
_SHIFT = _table(48 if 12 <= k < 16 else 8 for k in _K)
_SUFFIX = _table(_word(f"e-{k - 11:02d}") if k >= 16 else 0 for k in _K)


def _kept(k: int, zeros: int) -> int:
    """The bytes of digits and point that a number at ``k`` with ``zeros``
    trailing zero digits keeps."""
    p, digits = _P[k], 12 - zeros
    if not p:
        return digits
    keep = max(digits, p)
    return keep + (keep > p)


# By 23 * trailing zeros + k: masks of the digit words once the point is in.
_KEEP_LO = _table(_low(_kept(k, z)) for z in range(13) for k in _K)
_KEEP_HI = _table(_low(_kept(k, z) - 8) for z in range(13) for k in _K)
_TRAIL23 = 23 * _TRAILING
# By digit count: masks that drop the leading zeros of a face index.
_LEAD_LO = _table(_ALL ^ _low(12 - d) for d in range(13))
_LEAD_HI = _table(_ALL ^ _low(4 - d) for d in range(13))


def _line_seps(cols: int, tag: str) -> np.ndarray:
    """The separators of a line of ``cols`` items, from byte 4 of a word on:
    spaces, then a newline and the next line's ``tag`` (at most 3 bytes)."""
    return _table([_word(" ", 4)] * (cols - 1) + [_word("\n" + tag, 4)])


def _digits(n: np.ndarray):
    """The 12 ASCII digits of integers 0 <= n < 10**12 as two words (the
    first 8, the last 4), and n's 4-digit groups, first to last.  Any other
    int64 gives words too, of no meaning."""
    high = n // 10000
    low4 = n - high * 10000
    top4 = high // 10000
    mid4 = high - top4 * 10000
    first = _DIGITS.take(top4, mode="clip")
    first |= _DIGITS_HI.take(mid4)
    return first, _DIGITS.take(low4), top4, mid4, low4


def _number_words(x: np.ndarray, seps: np.ndarray) -> np.ndarray:
    """A (rows, cols) float array as lines of ``format_number`` values, three
    NUL-padded words per number, the last one or'ed with its separator."""
    rows, cols = x.shape
    xs = np.empty((rows, cols))
    for j in range(cols):  # a column at a time: rows of a wider array copy slowly
        xs[:, j] = x[:, j]
    xs = xs.reshape(-1)
    with np.errstate(all="ignore"):
        m = np.abs(xs)
        k = np.log10(m)
        k = (11 - np.floor(k, out=k)).astype(np.intp)
        # k and the digits of exact-path numbers are garbage: every table
        # lookup clips, and the exact path overwrites their words
        m *= _POW10.take(k, mode="clip")
        r = m + 0.5
        np.floor(r, out=r)
        fast = np.abs(m - r) < 0.499
        fast &= m >= 1e11
        fast &= m < 1e12 - 1
        n = r.astype(np.int64)
    # chunk-sized arrays are freed once spent and updated in place: fewer of
    # them at a time keeps the peak RSS and the allocator's page faults down
    del m, r
    lo, hi, top4, mid4, low4 = _digits(n)
    t = _TRAIL23.take(low4)
    t += k
    zero = np.flatnonzero(low4 == 0)
    if zero.size:  # the last four digits are zeros: count on through the others
        mid = mid4[zero]
        t[zero] += 23 * (_TRAILING[mid] + (mid == 0) * _TRAILING.take(top4[zero], mode="clip"))
    del n, top4, mid4, low4
    # "." goes in at byte _P[k] of the digits; the bytes from there on move
    # one byte higher, across from the first word if _P[k] < 8
    up = lo & _ABOVE_LO.take(k, mode="clip")
    lo ^= up
    lo |= _DOT_LO.take(k, mode="clip")
    carry = up >> 56
    up <<= 8
    lo |= up
    lo &= _KEEP_LO.take(t, mode="clip")
    up = hi & _ABOVE_HI.take(k, mode="clip")
    hi ^= up
    hi |= _DOT_HI.take(k, mode="clip")
    hi |= carry
    up <<= 8
    hi |= up
    hi &= _KEEP_HI.take(t, mode="clip")
    del up, carry, t
    shift = _SHIFT.take(k, mode="clip")
    back = 64 - shift
    out = np.empty((xs.size, 3), _U64)
    word = xs.view(_U64) >> 63
    word *= ord("-")
    word |= _PREFIX.take(k, mode="clip")
    np.bitwise_or(word, lo << shift, out=out[:, 0])
    np.bitwise_or(lo >> back, hi << shift, out=out[:, 1])
    hi >>= back
    hi |= _SUFFIX.take(k, mode="clip")
    np.bitwise_or(hi, seps[: xs.size], out=out[:, 2])
    exact = np.flatnonzero(~fast)
    if exact.size:
        out[exact] = _words(map(format_number, xs[exact].tolist()), 24)
        out[exact, 2] |= seps[exact]
    return out.reshape(rows, -1)


def _face_words(refs: np.ndarray, seps: np.ndarray, normals: bool = True) -> np.ndarray:
    """(faces, 3) 1-based vertex indices below 10**12 as the ``a//a b//b
    c//c`` lines of OBJ face records, four NUL-padded words per index, or
    without ``normals`` as ``a b c`` lines, two words per index."""
    flat = refs.reshape(-1)
    lo, hi = _digits(flat)[:2]
    count = np.searchsorted(_POW10, flat, side="right")
    lo &= _LEAD_LO.take(count)
    hi &= _LEAD_HI.take(count)
    if not normals:
        return np.stack([lo, hi | seps[: flat.size]], axis=1).reshape(refs.shape[0], -1)
    out = np.empty((flat.size, 4), _U64)
    out[:, 0] = out[:, 2] = lo
    np.bitwise_or(hi, _word("//", 4), out=out[:, 1])
    np.bitwise_or(hi, seps[: flat.size], out=out[:, 3])
    return out.reshape(refs.shape[0], -1)


def _write_lines(fh: BinaryIO, tag: str, rows: np.ndarray, render) -> None:
    """Write ``render(rows, seps)`` chunk by chunk, each line led by ``tag``.
    A line's last separator carries the next line's tag, so the first tag is
    written ahead and the last one cut."""
    if not rows.shape[0]:
        return
    seps = np.tile(_line_seps(rows.shape[1], tag), min(rows.shape[0], _CHUNK_ROWS))
    fh.write(tag.encode())
    for start in range(0, rows.shape[0], _CHUNK_ROWS):
        text = render(rows[start : start + _CHUNK_ROWS], seps).tobytes().translate(None, b"\0")
        if start + _CHUNK_ROWS >= rows.shape[0]:
            text = memoryview(text)[: len(text) - len(tag)]
        fh.write(text)


def _in_memory(write, *args) -> bytes:
    """The bytes that ``write(fh, *args)`` streams into a file."""
    buf = io.BytesIO()
    write(buf, *args)
    return buf.getvalue()


def write_obj(fh: BinaryIO, mesh: EnvelopeMesh) -> None:
    """Write a mesh as ASCII OBJ: ``v`` records, ``vn`` records and faces.

    The ``v`` records are the vertices' first three coordinates.  A mesh with
    normals writes them as ``vn`` records and its faces as ``f a//a b//b
    c//c``; a mesh without writes ``f a b c``.  Vertices that are not 2-D with
    at least three columns, normals that are not (vertex count, 3), or a face
    index outside [0, vertex count) raise `DomainError` before anything is
    written.
    """
    shape = np.shape(mesh.vertices)
    if len(shape) != 2 or shape[1] < 3:
        raise DomainError(f"mesh vertices have shape {shape}, not (count, 3 or more)")
    count = shape[0]
    if mesh.normals is not None and np.shape(mesh.normals) != (count, 3):
        raise DomainError(f"mesh normals have shape {np.shape(mesh.normals)}, not ({count}, 3)")
    faces = None
    if mesh.faces is not None:
        faces = np.asarray(mesh.faces, dtype=np.int64)
        if faces.size and (faces.min() < 0 or faces.max() >= count):
            bad = faces[(faces < 0) | (faces >= count)][0]
            raise DomainError(f"mesh face index {bad} is outside [0, {count})")
    if mesh.name:
        fh.write(f"o {mesh.name}\n".encode())
    _write_lines(fh, "v ", mesh.vertices[:, :3], _number_words)
    if mesh.normals is not None:
        _write_lines(fh, "vn ", mesh.normals, _number_words)
    if faces is not None:
        _write_lines(fh, "f ", faces + 1, partial(_face_words, normals=mesh.normals is not None))


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
