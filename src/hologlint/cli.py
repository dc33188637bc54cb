"""Command-line surface tying the pipeline together.

Subcommands: foliate, ridge, stripe, profile, simulate, export, verify.
Angles cross this boundary in degrees; everything downstream is radians.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

import numpy as np

from . import exporters, scene as scene_io
from .errors import HologlintError
from .foliation import CartesianOval, ConicKind, classify_member, member_through
from .geom import (
    LineView,
    TangentBasis,
    conformance_distance,
    normality_residual,
    sightline_host_intersection,
)
from .ridging import build_ridging, mesh_ridging
from .simulate import RasterParams, SimScene, find_glints, render_glintmap, triangulate
from .striping import bit_profile_for, make_striping

_KIND_NOTES = {
    ConicKind.ELLIPSOID: "ellipsoid, ε<1",
    ConicKind.HYPERBOLOID: "hyperboloid, ε>1",
    ConicKind.PARABOLOID: "paraboloid, ε=1",
    ConicKind.SPHERE: "sphere, ε→0",
}


def _load(path: str) -> scene_io.SceneSpec:
    text = Path(path).read_text(encoding="utf-8")
    return scene_io.parse_scene(text)


def _pipeline(spec: scene_io.SceneSpec):
    return (
        scene_io.build_media(spec),
        scene_io.build_light(spec),
        scene_io.build_host(spec),
        scene_io.build_view(spec),
        scene_io.build_fab(spec),
        scene_io.build_stipples(spec),
    )


def _stipple_anchor(p, host, view):
    """Host point anchoring a stipple's foliation member: the specularity
    point for the view-center sightline."""
    theta_c = 0.5 if isinstance(view, LineView) else 0.5 * (view.theta_min + view.theta_max)
    return sightline_host_intersection(view.eye_at(theta_c), p, host)


def cmd_foliate(args) -> int:
    spec = _load(args.scene)
    media, light, host, view, _, stipples = _pipeline(spec)
    for s in stipples:
        kind = classify_member(s.p, host, light)
        note = _KIND_NOTES[kind]
        try:
            anchor = _stipple_anchor(s.p, host, view)
            member = member_through(
                s.p,
                light,
                anchor,
                media,
                kind=kind if kind in (ConicKind.ELLIPSOID, ConicKind.HYPERBOLOID) else None,
            )
            if isinstance(member, CartesianOval):
                print(
                    f"stipple {s.stipple_id}: cartesian oval "
                    f"(eta2/eta1={member.eta2 / member.eta1:.4f}, k={member.k:.6f} mm)"
                )
            else:
                print(
                    f"stipple {s.stipple_id}: {note} "
                    f"(eps={member.eccentricity:.6f}, k={member.k:.6f} mm)"
                )
        except HologlintError as exc:
            print(f"stipple {s.stipple_id}: {note} (degenerate: {exc})")
    return 0


def _build_ridgings(media, light, host, fab, stipples, max_radius):
    """Per-stipple ridgings; colliding host footprints are an error."""
    surfaces = []
    for s in stipples:
        rs = build_ridging(s.p, light, host, fab, max_radius=max_radius, media=media)
        surfaces.append((s, rs))

    # stipple footprints share the host: overlaps are errors, not blended
    for i in range(len(surfaces)):
        for j in range(i + 1, len(surfaces)):
            si, ri = surfaces[i]
            sj, rj = surfaces[j]
            reach_i = max(r.r_out for r in ri.ridges)
            reach_j = max(r.r_out for r in rj.ridges)
            gap = float(np.linalg.norm(ri.foot - rj.foot))
            if gap < reach_i + reach_j:
                raise HologlintError(
                    f"ridging footprints of stipples {si.stipple_id} and "
                    f"{sj.stipple_id} collide on the host"
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
        path.write_text(exporters.format_obj(mesh, name=f"stipple_{s.stipple_id}"), encoding="utf-8")
        print(f"wrote {path} ({len(mesh.vertices)} vertices, {len(mesh.triangles)} faces)")
        for w in rs.warnings:
            print(f"warning: stipple {s.stipple_id}: {w}")
    return 0


def _make_striping(spec):
    media, light, host, view, fab, stipples = _pipeline(spec)
    striping = make_striping(
        stipples, light, host, view, fab, step=scene_io.integration_step(spec)
    )
    return media, light, host, view, fab, stipples, striping


def cmd_stripe(args) -> int:
    spec = _load(args.scene)
    *_, fab, _, striping = _make_striping(spec)
    outdir = Path(args.output)
    outdir.mkdir(parents=True, exist_ok=True)
    (outdir / "striping.nc").write_text(exporters.export_gcode(striping, fab), encoding="utf-8")
    (outdir / "striping.csv").write_text(exporters.format_csv(striping), encoding="utf-8")
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
    spec = _load(args.scene)
    media, light, host, view, fab, stipples, striping = _make_striping(spec)
    outdir = Path(args.output)
    outdir.mkdir(parents=True, exist_ok=True)

    sim = SimScene(targets=(striping,), light=light, media=media)
    glintmap = render_glintmap(sim, view, RasterParams(args.raster, args.raster))
    paths = exporters.export_frames(glintmap, outdir)
    print(f"wrote {len(paths)} frames to {outdir}")

    half = math.radians(args.baseline_deg) / 2.0
    report = ["stipple_id,theta_c_deg,px,py,pz,err_mm,residual_mm"]
    for arc in striping.arcs:
        s = arc.stipple
        theta_c = 0.5 * (arc.theta_a + arc.theta_b)
        eyes = (view.eye_at(theta_c - half), view.eye_at(theta_c + half))
        gl = find_glints(arc, eyes[0], light, media, dedupe_radius=fab.tool_radius)
        gr = find_glints(arc, eyes[1], light, media, dedupe_radius=fab.tool_radius)
        if not gl or not gr:
            report.append(f"{s.stipple_id},{math.degrees(theta_c):.4f},nan,nan,nan,nan,nan")
            continue
        tri = triangulate(gl[0], gr[0], eyes)
        if tri.point is None:
            report.append(f"{s.stipple_id},{math.degrees(theta_c):.4f},inf,inf,inf,inf,inf")
            continue
        err = float(np.linalg.norm(tri.point - s.p))
        report.append(
            f"{s.stipple_id},{math.degrees(theta_c):.4f},"
            f"{tri.point[0]:.6f},{tri.point[1]:.6f},{tri.point[2]:.6f},"
            f"{err:.6f},{tri.residual:.6f}"
        )
    (outdir / "triangulation.csv").write_text("\n".join(report) + "\n", encoding="utf-8")
    print(f"wrote {outdir / 'triangulation.csv'}")
    return 0


def cmd_export(args) -> int:
    """Write the full artifact bundle: G-code, CSV, OBJ meshes, frames."""
    spec = _load(args.scene)
    media, light, host, view, fab, stipples, striping = _make_striping(spec)
    outdir = Path(args.output)
    outdir.mkdir(parents=True, exist_ok=True)

    meshes: list[str] = []
    if spec.host.kind == "plane":
        try:
            surfaces = _build_ridgings(media, light, host, fab, stipples, args.max_radius)
            meshes = [
                exporters.format_obj(mesh_ridging(rs, fab), name=f"stipple_{s.stipple_id}")
                for s, rs in surfaces
            ]
        except HologlintError as exc:
            print(f"ridge export skipped: {exc}", file=sys.stderr)

    sim = SimScene(targets=(striping,), light=light, media=media)
    glintmap = render_glintmap(sim, view, RasterParams(args.raster, args.raster))
    frame_paths = exporters.export_frames(glintmap, outdir)

    (outdir / "striping.nc").write_text(exporters.export_gcode(striping, fab), encoding="utf-8")
    (outdir / "striping.csv").write_text(exporters.format_csv(striping), encoding="utf-8")
    for idx, obj_text in enumerate(meshes):
        (outdir / f"ridge_{idx:03d}.obj").write_text(obj_text, encoding="utf-8")
    print(f"wrote bundle to {outdir}: gcode, csv, {len(meshes)} meshes, {len(frame_paths)} frames")
    return 0


def cmd_verify(args) -> int:
    spec = _load(args.scene)
    media, light, host, view, fab, stipples, striping = _make_striping(spec)
    failures: list[str] = []

    # constraint (1), normality, along every arc; (3), conformance, per sample
    for arc in striping.arcs:
        sid = arc.stipple.stipple_id
        for s in arc.toolpath.samples:
            t2 = np.cross(s.t1, s.axis)
            basis = TangentBasis(s.t1, t2, s.position)
            r1 = normality_residual(basis, light, view.eye_at(s.theta), media)
            scale = max(1.0, float(np.linalg.norm(s.t1)) * float(np.linalg.norm(s.axis)))
            if max(abs(r1[0]), abs(r1[1])) / scale > 1e-9:
                failures.append(
                    f"(1) normality violated at stipple {sid}, "
                    f"theta={math.degrees(s.theta):.4f} deg, sample={s.position}, "
                    f"residual={r1}"
                )
            dist = conformance_distance(s.position, host)
            if dist > fab.delta + 1e-9:
                failures.append(
                    f"(3) conformance violated at stipple {sid}, "
                    f"theta={math.degrees(s.theta):.4f} deg, distance={dist:.6g} mm "
                    f"> delta={fab.delta}"
                )

        # constraint (2), colinearity, at the arc's design crossing
        eye = view.eye_at(arc.theta_c)
        glints = find_glints(arc, eye, light, media, dedupe_radius=fab.tool_radius)
        if not glints:
            failures.append(f"(2) colinearity: no glint at window center for stipple {sid}")
        elif glints[0].colinearity > fab.tool_radius:
            failures.append(
                f"(2) colinearity violated at stipple {sid}: residual "
                f"{glints[0].colinearity:.6g} mm > tool radius at sample={glints[0].point}"
            )

    # foliation members through each stipple's anchor satisfy normality exactly
    rng = np.random.default_rng(7)
    for s in stipples:
        kind = classify_member(s.p, host, light)
        try:
            anchor = _stipple_anchor(s.p, host, view)
            member = member_through(
                s.p,
                light,
                anchor,
                media,
                kind=kind if kind in (ConicKind.ELLIPSOID, ConicKind.HYPERBOLOID) else None,
            )
        except HologlintError:
            continue
        if isinstance(member, CartesianOval):
            continue  # ovals have no (azimuth, latitude) parameterization
        drawn = rng.bit_generator.state
        azimuths, latitudes = rng.uniform([-math.pi, 0.05], [math.pi, 0.45], size=(32, 2)).T
        for j, pt in enumerate(member.points_at(azimuths, latitudes)):
            if np.isnan(pt).any():
                continue  # the direction misses the sheet
            n = member.normal(pt)
            b1 = np.cross(n, np.array([0.0, 1.0, 0.0]))
            if np.linalg.norm(b1) < 1e-9:
                b1 = np.cross(n, np.array([1.0, 0.0, 0.0]))
            b1 /= np.linalg.norm(b1)
            b2 = np.cross(n, b1)
            real = member.kind in (ConicKind.ELLIPSOID, ConicKind.SPHERE) or member.paraboloid_sign < 0
            eye_pt = pt + 2.0 * ((s.p - pt) if real else (pt - s.p))  # past p iff p images really
            r = normality_residual(TangentBasis(b1, b2, pt), light, eye_pt, media)
            if max(abs(r[0]), abs(r[1])) > 1e-9:
                failures.append(
                    f"(1) normality violated on the foliation member of stipple "
                    f"{s.stipple_id} at sample={pt}, residual={r}"
                )
                # leave the generator where drawing only samples 0..j would have
                rng.bit_generator.state = drawn
                rng.uniform(size=2 * (j + 1))
                break

    if failures:
        for f in failures:
            print(f"FAIL {f}")
        print(f"verify: {len(failures)} violation(s)")
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
    ps.add_argument("--baseline-deg", type=float, default=3.0, help="stereo baseline (degrees)")
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
    try:
        return args.fn(args)
    except HologlintError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(cli_dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
