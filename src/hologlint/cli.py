"""Command-line surface tying the pipeline together.

Subcommands: foliate, ridge, stripe, profile, simulate, export, verify.
Angles cross this boundary in degrees; everything downstream is radians.
"""

from __future__ import annotations

import argparse
import gc
import math
import sys
from itertools import combinations
from pathlib import Path

import numpy as np

from . import exporters, scene as scene_io
from .errors import HologlintError
from .foliation import CartesianOval, ConicKind, classify_member, member_through
from .geom import LineView, sightline_host_intersection
from .ridging import build_ridging, mesh_ridging
from .simulate import RasterParams, find_glints, render_glintmap, triangulate, verify_suites
from .striping import bit_profile_for, make_striping

_KIND_NOTES = {
    ConicKind.ELLIPSOID: "ellipsoid, ε<1",
    ConicKind.HYPERBOLOID: "hyperboloid, ε>1",
    ConicKind.PARABOLOID: "paraboloid, ε=1",
    ConicKind.SPHERE: "sphere, ε→0",
}


def _load(path: str) -> scene_io.SceneSpec:
    return scene_io.parse_scene(Path(path).read_text(encoding="utf-8"))


def _pipeline(spec: scene_io.SceneSpec):
    """The scene's media, light, host, view, fab and stipples."""
    builds = (scene_io.build_media, scene_io.build_light, scene_io.build_host, scene_io.build_view,
              scene_io.build_fab, scene_io.build_stipples)
    return tuple(build(spec) for build in builds)


def _stipple_anchor(p, host, view):
    """Host point anchoring a stipple's foliation member: the specularity
    point for the view-center sightline."""
    theta_c = 0.5 if isinstance(view, LineView) else 0.5 * (view.theta_min + view.theta_max)
    return sightline_host_intersection(view.eye_at(theta_c), p, host)


def _stipple_member(p, kind: ConicKind, media, light, host, view):
    """The foliation member through ``p`` and its anchor, of the ``classify_member`` kind."""
    anchor = _stipple_anchor(p, host, view)
    family = kind if kind in (ConicKind.ELLIPSOID, ConicKind.HYPERBOLOID) else None
    return member_through(p, light, anchor, media, kind=family)


def cmd_foliate(args) -> int:
    spec = _load(args.scene)
    media, light, host, view, _, stipples = _pipeline(spec)
    for s in stipples:
        kind = classify_member(s.p, host, light)
        note = _KIND_NOTES[kind]
        try:
            member = _stipple_member(s.p, kind, media, light, host, view)
            if isinstance(member, CartesianOval):
                shape = f"cartesian oval (eta2/eta1={member.eta2 / member.eta1:.4f}"
            else:
                shape = f"{note} (eps={member.eccentricity:.6f}"
            print(f"stipple {s.stipple_id}: {shape}, k={member.k:.6f} mm)")
        except HologlintError as exc:
            print(f"stipple {s.stipple_id}: {note} (degenerate: {exc})")
    return 0


def _build_ridgings(media, light, host, fab, stipples, max_radius):
    """Per-stipple ridgings; colliding host footprints are an error."""
    surfaces = [(s, build_ridging(s.p, light, host, fab, max_radius=max_radius, media=media))
                for s in stipples]
    # stipple footprints share the host: overlaps are errors, not blended
    for (si, ri), (sj, rj) in combinations(surfaces, 2):
        reach_i = max(r.r_out for r in ri.ridges)
        reach_j = max(r.r_out for r in rj.ridges)
        if float(np.linalg.norm(ri.foot - rj.foot)) < reach_i + reach_j:
            raise HologlintError(
                f"ridging footprints of stipples {si.stipple_id} and {sj.stipple_id} collide on the host"
            )
    return surfaces


def cmd_ridge(args) -> int:
    media, light, host, _, fab, stipples = _pipeline(_load(args.scene))
    outdir = Path(args.output)
    outdir.mkdir(parents=True, exist_ok=True)
    surfaces = _build_ridgings(media, light, host, fab, stipples, args.max_radius)

    for s, rs in surfaces:
        mesh = mesh_ridging(rs, fab)
        path = outdir / f"ridge_{s.stipple_id:03d}.obj"
        exporters.write_chunks(path, exporters.obj_chunks(mesh, name=f"stipple_{s.stipple_id}"))
        print(f"wrote {path} ({len(mesh.vertices)} vertices, {len(mesh.triangles)} faces)")
        for w in rs.warnings:
            print(f"warning: stipple {s.stipple_id}: {w}")
    return 0


def _make_striping(spec):
    media, light, host, view, fab, stipples = _pipeline(spec)
    striping = make_striping(
        stipples, light, host, view, fab, step=scene_io.integration_step(spec), media=media
    )
    return media, light, host, view, fab, stipples, striping


def cmd_stripe(args) -> int:
    spec = _load(args.scene)
    *_, fab, _, striping = _make_striping(spec)
    outdir = Path(args.output)
    outdir.mkdir(parents=True, exist_ok=True)
    exporters.write_chunks(outdir / "striping.nc", exporters.gcode_chunks(striping, fab))
    exporters.write_chunks(outdir / "striping.csv", exporters.csv_chunks(striping))
    print(f"wrote {outdir / 'striping.nc'} and {outdir / 'striping.csv'}")
    print(f"accepted {len(striping.arcs)} arcs, rejected {len(striping.rejected)}")
    for stipple, reason in striping.rejected:
        print(f"rejected stipple {stipple.stipple_id}: {reason}")
    return 0


def cmd_profile(args) -> int:
    spec = _load(args.scene)
    *_, striping = _make_striping(spec)
    profile = bit_profile_for(striping)
    lo, hi = (math.degrees(a) for a in profile.angle_interval)
    print(f"bit profile angle interval: [{lo:.2f}, {hi:.2f}] deg (span {hi - lo:.2f} deg)")
    print(f"profile points (depth mm, radius mm): {len(profile.points)}")
    return 0


def cmd_simulate(args) -> int:
    if not math.isfinite(args.baseline_deg):
        raise HologlintError(f"stereo baseline must be finite, got {args.baseline_deg}")
    if not 0.0 < abs(args.baseline_deg) < 180.0:
        raise HologlintError(f"stereo baseline must be 0 < |deg| < 180, got {args.baseline_deg}")
    spec = _load(args.scene)
    media, light, host, view, fab, stipples, striping = _make_striping(spec)
    outdir = Path(args.output)
    outdir.mkdir(parents=True, exist_ok=True)

    glintmap = render_glintmap((striping,), light, view, media, RasterParams(args.raster, args.raster))
    paths = exporters.export_frames(glintmap, outdir)
    print(f"wrote {len(paths)} frames to {outdir}")

    half = math.radians(args.baseline_deg) / 2.0
    centers = [0.5 * (arc.theta_a + arc.theta_b) for arc in striping.arcs]
    pairs = [(view.eye_at(theta_c - half), view.eye_at(theta_c + half)) for theta_c in centers]
    twice, stereo = [arc for arc in striping.arcs for _ in range(2)], [e for pair in pairs for e in pair]
    found = find_glints(twice, stereo, light, media, dedupe_radius=fab.tool_radius)
    report = ["stipple_id,theta_c_deg,px,py,pz,err_mm,residual_mm"]
    for arc, theta_c, eyes, gl, gr in zip(striping.arcs, centers, pairs, found[::2], found[1::2]):
        tri = triangulate(gl[0], gr[0], eyes) if gl and gr else None
        if tri is None or tri.point is None:  # a missing glint, or parallel sightlines
            row = ",".join(["nan" if tri is None else "inf"] * 5)
        else:
            err = float(np.linalg.norm(tri.point - arc.stipple.p))
            row = f"{tri.point[0]:.6f},{tri.point[1]:.6f},{tri.point[2]:.6f},{err:.6f},{tri.residual:.6f}"
        report.append(f"{arc.stipple.stipple_id},{math.degrees(theta_c):.4f},{row}")
    (outdir / "triangulation.csv").write_text("\n".join(report) + "\n", encoding="utf-8")
    print(f"wrote {outdir / 'triangulation.csv'}")
    return 0


def cmd_export(args) -> int:
    """Write the full artifact bundle: G-code, CSV, OBJ meshes, frames."""
    spec = _load(args.scene)
    media, light, host, view, fab, stipples, striping = _make_striping(spec)
    outdir = Path(args.output)
    outdir.mkdir(parents=True, exist_ok=True)

    meshes: list[list[str]] = []
    if spec.host.kind == "plane":
        try:
            surfaces = _build_ridgings(media, light, host, fab, stipples, args.max_radius)
            meshes = [
                exporters.obj_chunks(mesh_ridging(rs, fab), name=f"stipple_{s.stipple_id}")
                for s, rs in surfaces
            ]
        except HologlintError as exc:
            print(f"ridge export skipped: {exc}", file=sys.stderr)

    glintmap = render_glintmap((striping,), light, view, media, RasterParams(args.raster, args.raster))
    frame_paths = exporters.export_frames(glintmap, outdir)

    exporters.write_chunks(outdir / "striping.nc", exporters.gcode_chunks(striping, fab))
    exporters.write_chunks(outdir / "striping.csv", exporters.csv_chunks(striping))
    for idx, chunks in enumerate(meshes):
        exporters.write_chunks(outdir / f"ridge_{idx:03d}.obj", chunks)
    print(f"wrote bundle to {outdir}: gcode, csv, {len(meshes)} meshes, {len(frame_paths)} frames")
    return 0


def cmd_verify(args) -> int:
    spec = _load(args.scene)
    media, light, host, view, _, stipples, striping = _make_striping(spec)
    members = []
    for s in stipples:
        kind = classify_member(s.p, host, light)
        try:
            members.append((s, _stipple_member(s.p, kind, media, light, host, view)))
        except HologlintError:
            continue
    report = verify_suites(striping, members, light, host, view, media)
    if report.failures:
        for f in report.failures:
            print(f"FAIL {f}")
        print(f"verify: {len(report.failures)} violation(s)")
        return 1
    print("verify: all residual suites passed (equations (1), (2), (3))")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hologlint",
        description="Specular hologram surface synthesis and glint simulation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, help_text, output=False):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("scene", help="scene document path")
        if output:
            p.add_argument("-o", "--output", default="out", help="output directory")
        p.set_defaults(fn=fn)
        return p

    add("foliate", cmd_foliate, "print member classification and constants per stipple")
    pr = add("ridge", cmd_ridge, "build ridged surfaces and write OBJ meshes", output=True)
    pr.add_argument("--max-radius", type=float, default=None, help="footprint radius (mm)")
    add("stripe", cmd_stripe, "make the striping and write G-code + CSV", output=True)
    add("profile", cmd_profile, "print the bit-profile angle interval")
    ps = add("simulate", cmd_simulate, "render glint maps and a triangulation report", output=True)
    ps.add_argument("--baseline-deg", type=float, default=3.0, help="stereo baseline, 0 < |deg| < 180")
    ps.add_argument("--raster", type=int, default=128, help="frame width and height (pixels)")
    pe = add("export", cmd_export, "write every artifact (G-code, CSV, OBJ, frames)", output=True)
    pe.add_argument("--max-radius", type=float, default=None, help="footprint radius (mm)")
    pe.add_argument("--raster", type=int, default=128)
    add("verify", cmd_verify, "run the residual suites; nonzero exit on any violation")
    return parser


def cli_dispatch(argv: list[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    del parser  # argparse's formatters and groups refer to each other: free them while they are young
    gc.collect(1)
    try:
        return args.fn(args)
    except HologlintError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(cli_dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
