"""Deterministic artifact emitters: G-code, OBJ meshes, CSV, P5 graymaps.

All emitters format with fixed precision and fixed ordering so identical
inputs produce byte-identical artifacts.  The text records come from one NumPy
digit kernel (``_fixed`` for numbers, ``_digits`` for face ids), ``_CHUNK_ROWS``
rows at a time: a mesh holds ~10^5 rows of each record, a paper-scale striping
~10^6 samples, and ``%`` spends about a microsecond a number.  G-code and CSV
run their chunks over the arcs' rows concatenated once, across arc boundaries:
an arc's header and retract are words of its first and last row.  ``%``
(``_rows``) writes only what the kernel cannot write exactly.
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


def _words(texts: list[bytes]) -> np.ndarray:
    """The byte strings ``texts`` as rows of NUL-padded 4-byte words, as many as the longest needs."""
    cells = np.array(texts, "S")
    k = -(-cells.itemsize // 4)
    return cells.astype(f"S{4 * k}").view(np.uint32).reshape(len(texts), k)


# 3-digit groups zero-padded, unpadded, and the NUL word; a fraction's ".ddd" words.  Each table is one
# NUL-padded buffer from one ``%`` over the numbers below 1000: no object per word at import
_GROUPS = np.frombuffer(
    b"%03d\0" * 1000 % tuple(range(1000))
    + (b"%-4d" * 1000 % tuple(range(1000))).replace(b" ", b"\0")  # unpadded: NULs for the spaces
    + bytes(4000),
    np.uint32,
)
_POINT = np.frombuffer(b".%03d" * 1000 % tuple(range(1000)), np.uint32)
_SLASHES, _SPACE, _NEWLINE = (_words([t]) for t in (b"//", b" ", b"\n"))
# the words before a number and before a negative one: OBJ, CSV, and x, y and z on a G-code cut row and
# on an arc's first row, which moves there and plunges
_OBJ_LEADS, _CSV_LEADS = _words([b" ", b" -"]), _words([b",", b",-"])
_GCODE_LEADS = _words([b"G1 X", b"G1 X-", b" Y", b" Y-", b" Z", b" Z-",
                       b"G0 X", b"G0 X-", b" Y", b" Y-", b"\nG1 Z", b"\nG1 Z-"]).reshape(2, 3, 2, 2)


def _rows(template: str, rows: np.ndarray, neg_zero: str | None = None) -> list[str]:
    """``template`` filled from each row of ``rows``, ``_CHUNK_ROWS`` rows per string.  Each
    string writes ``neg_zero``, a negative zero at the template's fixed precision (so always
    a whole number, never part of one), without its sign.

    Only the chunks that the digit kernel cannot write exactly come here (``_fixed``,
    ``_face_chunk``)."""
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


def _fixed(block: np.ndarray, decimals: int, leads: np.ndarray, signed_zero: bool = False) -> np.ndarray:
    """The (rows, c) floats ``block`` as ``%.4f`` or ``%.6f`` (``decimals``) writes them, as
    (rows, c * width) words: each cell's lead, ``leads[..., 0, :]`` or, before a sign,
    ``leads[..., 1, :]`` (broadcast to (rows, c, 2, k)), then its digits; a negative zero keeps
    its sign only if ``signed_zero``.  The kernel writes n = rint(r), r = x *
    10^decimals rounded.  ``%`` rounds the exact product P instead, and the two differ only
    where a half-integer lies between r and P: as r is the float nearest P and every
    half-integer below 2^52 is a float, only where r is a half-integer.  A block goes to
    ``_rows`` if it holds such an r, or a value that is not finite or has |x| >= 1e9."""
    r = block * 10.0**decimals
    n = np.rint(r)
    if not ((np.abs(block) < 1e9).all() and (np.abs(r - n) < 0.5).all()):  # r - n is exact
        template = " ".join([f"%.{decimals}f"] * block.shape[1]) + "\n"
        text = "".join(_rows(template, block, None if signed_zero else "-0." + "0" * decimals))
        cells = [np.broadcast_to(leads[..., 0, :], (*block.shape, leads.shape[-1])),  # the text holds the sign
                 _words(text.encode().split()).reshape(*block.shape, -1)]
    else:
        whole, frac = np.divmod(np.abs(n).astype(np.int64), 10**decimals)
        high, low = np.divmod(frac, 10 ** (decimals - 3))  # ".ddd", then "ddd" or one digit, unpadded
        sign = np.signbit(block) if signed_zero else (block < 0) & (n != 0)
        cells = [np.where(sign[..., None], leads[..., 1, :], leads[..., 0, :]), _digits(whole),
                 _POINT[high][..., None], _GROUPS[low + (1000 if decimals == 4 else 0)][..., None]]
    return np.concatenate(cells, -1).reshape(len(block), -1)


def _text(rows: int, parts: list) -> str:
    """One text chunk of ``rows`` rows: per row the word blocks ``parts`` side by side, NULs
    dropped.  A part is a (rows, k) block, one (1, k) row for every row, or a pair ``(at,
    block)`` that writes the rows ``at`` alone and leaves the others NUL."""
    parts = [p if isinstance(p, tuple) else (slice(None), p) for p in parts]
    table, k = np.zeros((rows, sum(b.shape[-1] for _, b in parts)), np.uint32), 0
    for at, b in parts:
        table[at, k : k + b.shape[-1]] = b
        k += b.shape[-1]
    return table.tobytes().translate(None, b"\0").decode()


def _vertex_chunk(tag: str, block: np.ndarray) -> str:
    """``tag`` records of the (rows, 3) floats ``block``, as ``%.6f`` writes them but without
    negative zero."""
    return _text(len(block), [_words([tag.encode()]), _fixed(block, 6, _OBJ_LEADS), _NEWLINE])


def _face_chunk(block: np.ndarray) -> str:
    """``f a//a b//b c//c`` records of the (rows, 3) 0-based vertex ids ``block``, 1-based, as
    ``%d`` writes them; a block with a negative 1-based id goes to ``_rows`` instead."""
    ids = block.astype(np.int64) + 1
    if (ids < 0).any():
        return _rows("f %d//%d %d//%d %d//%d\n", np.repeat(block + 1, 2, axis=1))[0]
    digits = _digits(ids)
    space, slashes = (np.broadcast_to(w, (*ids.shape, 1)) for w in (_SPACE, _SLASHES))
    cells = np.concatenate([space, digits, slashes, digits], -1).reshape(len(ids), -1)
    return _text(len(ids), [_words([b"f"]), cells, _NEWLINE])


def write_chunks(path: str | Path, chunks: list[str]) -> None:
    """Write text chunks to ``path`` as UTF-8 without joining them into one string."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(chunks)


def _arc_rows(striping: Striping) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Every arc's toolpath thetas (N,) and positions (N, 3) concatenated, the row at which each
    arc starts and ends (A + 1,), and the arc of each row."""
    paths = [a.toolpath for a in striping.arcs]
    lengths = [len(p.thetas) for p in paths]
    thetas = np.concatenate([np.empty(0), *(p.thetas for p in paths)])
    positions = np.concatenate([np.empty((0, 3)), *(p.positions for p in paths)])
    return thetas, positions, np.cumsum([0, *lengths]), np.repeat(np.arange(len(paths)), lengths)


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
    _, rows, ends, arc_of = _arc_rows(striping)
    rows[:, 2] -= fab.delta  # x, y and cut depth
    if envelope is not None and len(rows):  # each arc's extremes, NaN where a column holds one
        low, high = (f.reduceat(rows, ends[:-1]) for f in (np.minimum, np.maximum))
        out = (low < envelope[::2]).any(axis=1) | (high > envelope[1::2]).any(axis=1)
        if out.any():
            sid = striping.arcs[out.argmax()].stipple.stipple_id
            raise EnvelopeError(f"arc for stipple {sid} leaves the machine envelope")
    first = np.zeros(len(rows), np.intp)
    first[ends[:-1]] = 1  # an arc's first row moves there and plunges; its last, before the next first, retracts
    last = np.append(first[1:], 1)
    heads = _words([f"( stipple {a.stipple.stipple_id} )\n".encode() for a in striping.arcs])
    plunge = _fixed(np.array([[feed]], float), 4, _words([b" F", b" F-"]))
    retract = np.concatenate([_fixed(np.array([[safe_height]], float), 4, _words([b"G0 Z", b"G0 Z-"])), _NEWLINE], 1)
    out = ["( hologlint striping toolpath )\nG21 ( millimeters )\nG90 ( absolute )\n", _text(1, [retract])]
    for i in range(0, len(rows), _CHUNK_ROWS):
        at = slice(i, i + _CHUNK_ROWS)
        block, plunges = rows[at], first[at]
        starts, stops = np.flatnonzero(plunges), np.flatnonzero(last[at])
        cells = _fixed(block, 4, _GCODE_LEADS[plunges])
        out.append(_text(len(block), [(starts, heads[arc_of[i + starts]]), cells, (starts, plunge), _NEWLINE,
                                      (stops, retract)]))
    return [*out, "M2\n"]


def export_gcode(*args, **kwargs) -> str:
    """``gcode_chunks`` joined into the program text."""
    return "".join(gcode_chunks(*args, **kwargs))


def csv_chunks(striping: Striping) -> list[str]:
    """Per-arc sample rows: stipple id, azimuth (degrees), position (mm)."""
    thetas, positions, _, arc_of = _arc_rows(striping)
    ids = _words([f"{a.stipple.stipple_id}".encode() for a in striping.arcs])
    out = ["stipple_id,theta_deg,x_mm,y_mm,z_mm\n"]
    for i in range(0, len(thetas), _CHUNK_ROWS):
        at = slice(i, i + _CHUNK_ROWS)
        block = np.column_stack([np.degrees(thetas[at]), positions[at]])
        out.append(_text(len(block), [ids[arc_of[at]], _fixed(block, 6, _CSV_LEADS, signed_zero=True), _NEWLINE]))
    return out


def format_csv(striping: Striping) -> str:
    """``csv_chunks`` joined into the CSV text."""
    return "".join(csv_chunks(striping))


def obj_chunks(mesh: Mesh, name: str = "ridging") -> list[str]:
    """OBJ text with v/vn/f records (6 decimals, no negative zero); faces grouped by tag."""
    out = [f"o {name}\n"]
    for tag, rows in (("v", mesh.vertices), ("vn", mesh.normals)):
        out += [_vertex_chunk(tag, rows[i : i + _CHUNK_ROWS]) for i in range(0, len(rows), _CHUNK_ROWS)]
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
