"""Deterministic artifact emitters: G-code, OBJ meshes, CSV, P5 graymaps.

All emitters format with fixed precision and fixed ordering so identical
inputs produce byte-identical artifacts.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from .errors import EnvelopeError
from .ridging import FabricationParams, Mesh
from .simulate import GlintMap
from .striping import Striping

GCODE_FEED = 300.0  # mm/min
SAFE_HEIGHT = 5.0  # mm above the host
_CHUNK_ROWS = 1024  # rows formatted by one % template


def _rows(template: str, rows: np.ndarray, neg_zero: str | None = None) -> list[str]:
    """``template`` filled from each row of ``rows``, ``_CHUNK_ROWS`` rows per string.  Each
    string writes ``neg_zero``, a negative zero at the template's fixed precision (so always
    a whole number, never part of one), without its sign."""
    out = []
    for i in range(0, len(rows), _CHUNK_ROWS):
        block = rows[i : i + _CHUNK_ROWS]
        text = (template * len(block)) % tuple(block.ravel().tolist())
        out.append(text if neg_zero is None else text.replace(neg_zero, neg_zero[1:]))
    return out


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
        thetas = arc.toolpath.thetas.tolist()
        degrees = np.fromiter(map(math.degrees, thetas), float, len(thetas))
        rows = np.column_stack([degrees, arc.toolpath.positions])
        out += _rows(f"{arc.stipple.stipple_id},%.6f,%.6f,%.6f,%.6f\n", rows)
    return out


def format_csv(striping: Striping) -> str:
    """``csv_chunks`` joined into the CSV text."""
    return "".join(csv_chunks(striping))


def obj_chunks(mesh: Mesh, name: str = "ridging") -> list[str]:
    """OBJ text with v/vn/f records (6 decimals, no negative zero); faces grouped by tag."""
    out = [f"o {name}\n", *_rows("v %.6f %.6f %.6f\n", mesh.vertices, "-0.000000")]
    out += _rows("vn %.6f %.6f %.6f\n", mesh.normals, "-0.000000")
    tags = np.asarray(mesh.face_tags)
    new_run = np.ones(len(tags), dtype=bool)  # the faces that open a run of one tag
    new_run[1:] = tags[1:] != tags[:-1]
    starts = np.flatnonzero(new_run).tolist()
    faces = np.repeat(mesh.triangles + 1, 2, axis=1)  # 1-based vertex//normal pairs
    for lo, hi in zip(starts, starts[1:] + [len(tags)]):
        out += [f"g {tags[lo]}\n", *_rows("f %d//%d %d//%d %d//%d\n", faces[lo:hi])]
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
