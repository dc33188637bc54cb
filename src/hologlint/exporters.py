"""Deterministic artifact emitters: G-code, OBJ meshes, CSV, P5 graymaps.

All emitters format with fixed precision and fixed ordering so identical
inputs produce byte-identical artifacts.  The OBJ ``v``, ``vn`` and ``f``
records come from one NumPy digit kernel (``_digits``), a chunk at a time: a
mesh holds ~10^5 rows of each, and ``%`` spends about a microsecond a number.
G-code and CSV rows are filled into ``%`` templates (``_rows``) per arc block
of 1-300 rows: below about 100 rows ``%`` costs less than the kernel's fixed
cost per chunk (one row: 3 us against 70 us).
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .errors import EnvelopeError
from .ridging import FabricationParams, Mesh
from .simulate import GlintMap
from .striping import Striping

GCODE_FEED = 300.0  # mm/min
SAFE_HEIGHT = 5.0  # mm above the host
_CHUNK_ROWS = 1024  # rows formatted into one text chunk


def _word(text: bytes) -> np.uint32:
    """``text``, at most 4 bytes, as one NUL-padded word."""
    return np.frombuffer(text.ljust(4, b"\0"), np.uint32)[0]


# 3-digit groups zero-padded, unpadded, and the NUL word; a fraction's ".ddd" words.  Each table is one
# NUL-padded buffer from one ``%`` over the numbers below 1000: no object per word at import
_GROUPS = np.frombuffer(
    b"%03d\0" * 1000 % tuple(range(1000))
    + (b"%-4d" * 1000 % tuple(range(1000))).replace(b" ", b"\0")  # unpadded: NULs for the spaces
    + bytes(4000),
    np.uint32,
)
_POINT = np.frombuffer(b".%03d" * 1000 % tuple(range(1000)), np.uint32)
_MINUS, _SLASHES, _SPACE, _NEWLINE = map(_word, (b" -", b"//", b" ", b"\n"))


def _rows(template: str, rows: np.ndarray, neg_zero: str | None = None) -> list[str]:
    """``template`` filled from each row of ``rows``, ``_CHUNK_ROWS`` rows per string.  Each
    string writes ``neg_zero``, a negative zero at the template's fixed precision (so always
    a whole number, never part of one), without its sign.

    G-code and CSV format all their rows here, one call per arc block, small enough that
    ``%`` mostly costs less than the digit kernel; OBJ comes here only for the chunks that
    the kernel cannot write exactly (``_fixed6``, ``_face_chunk``)."""
    out = []
    for i in range(0, len(rows), _CHUNK_ROWS):
        block = rows[i : i + _CHUNK_ROWS]
        text = (template * len(block)) % tuple(block.ravel().tolist())
        out.append(text if neg_zero is None else text.replace(neg_zero, neg_zero[1:]))
    return out


def _digits(m: np.ndarray) -> np.ndarray:
    """The non-negative int64 ``m`` as 3-digit words along a new last axis, as many words as
    ``m.max()`` needs, with the leading zeros left out."""
    groups, top = 1, m.max(initial=0)
    while top >= 1000**groups:
        groups += 1
    out = np.empty((*m.shape, groups), np.uint32)
    for j in range(groups - 1, -1, -1):  # least significant group last
        above = m // 1000
        # zero-padded below a nonzero group, unpadded at the top, NUL above it (0 stays "0")
        g = m - 1000 * above + 1000 * (above == 0)
        if j < groups - 1:
            g += 1000 * (m == 0)
        out[..., j] = _GROUPS[g]
        m = above
    return out


def _lines(head: bytes, cells: list[np.ndarray]) -> str:
    """One text chunk: per row ``head``, then the row's three cells, each made of the word
    blocks ``cells`` (broadcast to (rows, 3, k)) side by side, then a newline; NULs dropped."""
    rows, widths = max(map(len, cells)), [c.shape[-1] for c in cells]
    table = np.empty((rows, 3 * sum(widths) + 2), np.uint32)
    table[:, 0], table[:, -1] = _word(head), _NEWLINE
    body = table[:, 1:-1].reshape(rows, 3, -1)  # a view: the split axis is contiguous
    for c, k in zip(cells, np.cumsum(widths) - widths):
        body[..., k : k + c.shape[-1]] = c
    return table.tobytes().translate(None, b"\0").decode("ascii")


def _fixed6(tag: str, block: np.ndarray) -> str:
    """``tag`` records of the (rows, 3) floats ``block``, as ``%.6f`` writes them but without
    negative zero.  The kernel writes n = rint(r), r = x * 1e6 rounded.  ``%`` rounds the exact
    product P instead, and the two differ only where a half-integer lies between r and P: as
    r is the float nearest P and every half-integer below 2^52 is a float, only where r is a
    half-integer.  A block goes to ``_rows`` if it holds such an r, or a value that is not
    finite or has |x| >= 1e9."""
    r = block * 1e6
    n = np.rint(r)
    if not ((np.abs(block) < 1e9).all() and (np.abs(r - n) < 0.5).all()):  # r - n is exact
        return _rows(f"{tag} %.6f %.6f %.6f\n", block, "-0.000000")[0]
    n = np.abs(n).astype(np.int64)
    whole = n // 1_000_000
    frac = n - 1_000_000 * whole
    high = frac // 1000
    sign = np.where((block < 0) & (n != 0), _MINUS, _SPACE)  # the space before each cell, too
    return _lines(tag.encode(), [sign[..., None], _digits(whole), _POINT[high][..., None],
                                 _GROUPS[frac - 1000 * high][..., None]])


def _face_chunk(block: np.ndarray) -> str:
    """``f a//a b//b c//c`` records of the (rows, 3) 0-based vertex ids ``block``, 1-based, as
    ``%d`` writes them; a block with a negative 1-based id goes to ``_rows`` instead."""
    ids = block.astype(np.int64) + 1
    if (ids < 0).any():
        return _rows("f %d//%d %d//%d %d//%d\n", np.repeat(block + 1, 2, axis=1))[0]
    digits = _digits(ids)
    return _lines(b"f", [np.array([[_SPACE]]), digits, np.array([[_SLASHES]]), digits])


def write_chunks(path: str | Path, chunks: list[str]) -> None:
    """Write text chunks to ``path`` as UTF-8 without joining them into one string."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(chunks)


def gcode_chunks(
    striping: Striping,
    fab: FabricationParams,
    envelope: tuple[float, float, float, float, float, float] | None = None,
    feed: float = GCODE_FEED,
    safe_height: float = SAFE_HEIGHT,
) -> list[str]:
    """Millimeter/absolute program: one plunge and one retract per arc.

    The cut depth is the shell half-thickness below each sample.  ``envelope``
    is (xmin, xmax, ymin, ymax, zmin, zmax); any excursion raises before
    anything is formatted.  Coordinates have 4 decimals and no negative zero.
    """
    arcs = [(a.stipple.stipple_id, a.toolpath.positions - [0.0, 0.0, fab.delta]) for a in striping.arcs]
    for sid, rows in arcs:  # x, y and cut depth
        if envelope is not None and (
            (rows.min(axis=0) < envelope[::2]).any() or (rows.max(axis=0) > envelope[1::2]).any()
        ):
            raise EnvelopeError(f"arc for stipple {sid} leaves the machine envelope")
    retract = _rows("G0 Z%.4f\n", np.array([[safe_height]]), "-0.0000")
    out = ["( hologlint striping toolpath )\nG21 ( millimeters )\nG90 ( absolute )\n", *retract]
    for sid, rows in arcs:
        head = f"( stipple {sid} )\nG0 X%.4f Y%.4f\nG1 Z%.4f F%.4f\n"
        out += _rows(head, np.append(rows[0], feed)[None], "-0.0000")
        out += _rows("G1 X%.4f Y%.4f Z%.4f\n", rows[1:], "-0.0000") + retract
    return [*out, "M2\n"]


def export_gcode(*args, **kwargs) -> str:
    """``gcode_chunks`` joined into the program text."""
    return "".join(gcode_chunks(*args, **kwargs))


def csv_chunks(striping: Striping) -> list[str]:
    """Per-arc sample rows: stipple id, azimuth (degrees), position (mm)."""
    out = ["stipple_id,theta_deg,x_mm,y_mm,z_mm\n"]
    for arc in striping.arcs:
        rows = np.column_stack([np.degrees(arc.toolpath.thetas), arc.toolpath.positions])
        out += _rows(f"{arc.stipple.stipple_id},%.6f,%.6f,%.6f,%.6f\n", rows)
    return out


def format_csv(striping: Striping) -> str:
    """``csv_chunks`` joined into the CSV text."""
    return "".join(csv_chunks(striping))


def obj_chunks(mesh: Mesh, name: str = "ridging") -> list[str]:
    """OBJ text with v/vn/f records (6 decimals, no negative zero); faces grouped by tag."""
    out = [f"o {name}\n"]
    for tag, rows in (("v", mesh.vertices), ("vn", mesh.normals)):
        out += [_fixed6(tag, rows[i : i + _CHUNK_ROWS]) for i in range(0, len(rows), _CHUNK_ROWS)]
    tags = np.asarray(mesh.face_tags)
    new_run = np.ones(len(tags), dtype=bool)  # the faces that open a run of one tag
    new_run[1:] = tags[1:] != tags[:-1]
    starts = np.flatnonzero(new_run).tolist()
    for lo, hi in zip(starts, starts[1:] + [len(tags)]):
        out.append(f"g {tags[lo]}\n")
        out += [_face_chunk(mesh.triangles[i : min(i + _CHUNK_ROWS, hi)]) for i in range(lo, hi, _CHUNK_ROWS)]
    return out


def format_obj(mesh: Mesh, name: str = "ridging") -> str:
    """``obj_chunks`` joined into the OBJ text."""
    return "".join(obj_chunks(mesh, name))


def format_pgm(frame: np.ndarray) -> bytes:
    """Binary P5 graymap: magic, decimal dims, maxval 255, row-major bytes."""
    if frame.dtype != np.uint8 or frame.ndim != 2:
        raise ValueError("frame must be a 2-D uint8 array")
    h, w = frame.shape
    header = f"P5\n{w} {h}\n255\n".encode("ascii")
    return header + frame.tobytes(order="C")


def export_frames(glintmap: GlintMap, directory: str | Path, prefix: str = "frame") -> list[Path]:
    """One P5 file per view, zero-padded sequential names, ordered by theta."""
    if glintmap.frames is None:
        raise ValueError("glint map carries no raster frames")
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for idx, frame in enumerate(glintmap.frames):
        path = directory / f"{prefix}_{idx:04d}.pgm"
        path.write_bytes(format_pgm(frame))
        paths.append(path)
    return paths
