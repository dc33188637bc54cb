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


def _fmt(value: float) -> str:
    # fixed 4-decimal G-code coordinate formatting, no negative zero
    text = f"{value:.4f}"
    return "0.0000" if text == "-0.0000" else text


def export_gcode(
    striping: Striping,
    fab: FabricationParams,
    envelope: tuple[float, float, float, float, float, float] | None = None,
    feed: float = GCODE_FEED,
    safe_height: float = SAFE_HEIGHT,
) -> str:
    """Millimeter/absolute program: one plunge and one retract per arc.

    The cut depth is the shell half-thickness below each sample.  ``envelope``
    is (xmin, xmax, ymin, ymax, zmin, zmax); any excursion raises.
    """
    lines = [
        "( hologlint striping toolpath )",
        "G21 ( millimeters )",
        "G90 ( absolute )",
        f"G0 Z{_fmt(safe_height)}",
    ]
    for arc in striping.arcs:
        pts = arc.toolpath.positions
        depth = pts[:, 2] - fab.delta
        if envelope is not None:
            xmin, xmax, ymin, ymax, zmin, zmax = envelope
            if (
                pts[:, 0].min() < xmin
                or pts[:, 0].max() > xmax
                or pts[:, 1].min() < ymin
                or pts[:, 1].max() > ymax
                or depth.min() < zmin
                or depth.max() > zmax
            ):
                raise EnvelopeError(
                    f"arc for stipple {arc.stipple.stipple_id} leaves the machine envelope"
                )
        lines.append(f"( stipple {arc.stipple.stipple_id} )")
        lines.append(f"G0 X{_fmt(pts[0, 0])} Y{_fmt(pts[0, 1])}")
        lines.append(f"G1 Z{_fmt(depth[0])} F{_fmt(feed)}")
        for k in range(1, len(pts)):
            lines.append(f"G1 X{_fmt(pts[k, 0])} Y{_fmt(pts[k, 1])} Z{_fmt(depth[k])}")
        lines.append(f"G0 Z{_fmt(safe_height)}")
    lines.append("M2")
    lines.append("")
    return "\n".join(lines)


def format_csv(striping: Striping) -> str:
    """Per-arc sample rows: stipple id, azimuth (degrees), position (mm)."""
    rows = ["stipple_id,theta_deg,x_mm,y_mm,z_mm"]
    for arc in striping.arcs:
        sid = arc.stipple.stipple_id
        for theta, (x, y, z) in zip(arc.toolpath.thetas.tolist(), arc.toolpath.positions.tolist()):
            rows.append(f"{sid},{math.degrees(theta):.6f},{x:.6f},{y:.6f},{z:.6f}")
    rows.append("")
    return "\n".join(rows)


def format_obj(mesh: Mesh, name: str = "ridging") -> str:
    """OBJ text with v/vn/f records; faces grouped by imaging/backface tag."""
    lines = [f"o {name}"]
    for tag, rows in (("v", mesh.vertices), ("vn", mesh.normals)):
        for x, y, z in rows:
            # fixed 6-decimal coordinates, no negative zero
            lines.append(f"{tag} {x:.6f} {y:.6f} {z:.6f}".replace(" -0.000000", " 0.000000"))
    current_tag = None
    for tri, tag in zip(mesh.triangles, mesh.face_tags):
        if tag != current_tag:
            lines.append(f"g {tag}")
            current_tag = tag
        a, b, c = (int(i) + 1 for i in tri)
        lines.append(f"f {a}//{a} {b}//{b} {c}//{c}")
    lines.append("")
    return "\n".join(lines)


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
