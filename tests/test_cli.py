"""Command-line surface: statuses, outputs, and end-to-end determinism."""

import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from hologlint import cli, geom, simulate
from hologlint.cli import cli_dispatch
from hologlint.errors import HologlintError
from hologlint.foliation import CartesianOval, ConicKind, classify_member, member_through
from hologlint.geom import TangentBasis, conformance_distance
from hologlint.simulate import find_glints
from test_striping_batch import STRIPE_FLAT_SEED_1

BEHIND_SCENE = """\
[light]
type = directional
alpha_deg = 0

[view]
type = infinity
theta_min_deg = -45
theta_max_deg = 45
samples = 7

[stipples]
0 0 -10 1.0 -45 45 0
"""

POINT_SCENE = """\
[light]
type = point
position = 0 0 20

[view]
samples = 5

[stipples]
0 0 5 1.0 -30 30 0
"""


LINE_SCENE = """\
[light]
type = directional
alpha_deg = 30

[view]
type = line
samples = 5

[stipples]
0 0 -10 1.0 -45 45 0
"""

REFRACTIVE_SCENE = """\
[light]
type = point
position = 0 300 600

[media]
eta2 = 1.5

[host]
type = sphere
center = 0 0 -100
radius = 100

[view]
type = orbit
radius = 600
theta_min_deg = -30
theta_max_deg = 30

[stipples]
0 0 -10 1.0 -20 20 0
"""


@pytest.fixture
def behind_scene(tmp_path):
    path = tmp_path / "behind.txt"
    path.write_text(BEHIND_SCENE, encoding="utf-8")
    return path


@pytest.fixture
def point_scene(tmp_path):
    path = tmp_path / "point.txt"
    path.write_text(POINT_SCENE, encoding="utf-8")
    return path


class TestDispatch:
    def test_unknown_flag_exits_2(self, behind_scene):
        assert cli_dispatch(["stripe", str(behind_scene), "--no-such-flag"]) == 2

    def test_unknown_command_exits_2(self):
        assert cli_dispatch(["polish"]) == 2

    def test_missing_scene_file_reports_error(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            cli_dispatch(["foliate", str(tmp_path / "absent.txt")])


class TestFoliate:
    def test_front_point_prints_ellipsoid(self, point_scene, capsys):
        assert cli_dispatch(["foliate", str(point_scene)]) == 0
        out = capsys.readouterr().out
        assert "ellipsoid, ε<1" in out

    def test_behind_point_prints_paraboloid_for_sun(self, behind_scene, capsys):
        assert cli_dispatch(["foliate", str(behind_scene)]) == 0
        out = capsys.readouterr().out
        assert "paraboloid" in out


class TestVerify:
    def test_exact_scene_passes(self, point_scene, capsys):
        assert cli_dispatch(["verify", str(point_scene)]) == 0
        out = capsys.readouterr().out
        assert "passed" in out

    def test_behind_scene_passes(self, behind_scene):
        assert cli_dispatch(["verify", str(behind_scene)]) == 0

    @pytest.mark.parametrize(
        "light, stipples",
        [
            ("type = point\nposition = 0 0 20", "0 0 -10 1.0 -30 30 0"),
            (
                "type = directional\nalpha_deg = 60",
                "0 0 -10 1.0 -45 45 0\n20 5 -6 1.0 -20 30 0\n-20 -5 -14 1.0 -30 10 0",
            ),
        ],
    )
    def test_virtual_image_members_pass(self, tmp_path, capsys, light, stipples):
        # stipples behind the host image virtually: the test eye sits past the member
        scene = tmp_path / "virtual.txt"
        scene.write_text(
            f"[light]\n{light}\n\n[view]\nsamples = 7\n\n[stipples]\n{stipples}\n",
            encoding="utf-8",
        )
        cli_dispatch(["verify", str(scene)])
        out = capsys.readouterr().out
        assert "verify:" in out
        assert "foliation member" not in out

    def test_colinearity_checked_at_the_design_crossing(self, tmp_path, capsys):
        # the arc is clipped unevenly about its design crossing (-10 deg), so
        # the clipped arc's midpoint (-2.25 deg) is 0.41 mm off the sightline
        scene = tmp_path / "crossing.txt"
        scene.write_text(
            "[light]\ntype = directional\nalpha_deg = 60\n\n[view]\nsamples = 7\n\n"
            "[stipples]\n-20 -5 -14 1.0 -30 10 0\n",
            encoding="utf-8",
        )
        assert cli_dispatch(["verify", str(scene)]) == 0
        assert "FAIL" not in capsys.readouterr().out

    def test_refractive_arcs_follow_the_scene_media(self, tmp_path, capsys):
        # the arcs follow the eta-weighted design axis that (1) checks them against;
        # a reflective striping fails (1) at 275 samples of this scene
        scene = tmp_path / "refractive.txt"
        scene.write_text(REFRACTIVE_SCENE, encoding="utf-8")
        assert cli_dispatch(["verify", str(scene)]) == 0
        assert "FAIL" not in capsys.readouterr().out

    def test_violation_names_the_equation(self, behind_scene, capsys, monkeypatch):
        # arcs moved 1 mm off their stipples' sightlines put each glint farther from them
        # than the 0.2 mm tool radius can absorb, so the (2) check must fail and say so
        _fault_shift(monkeypatch)
        assert cli_dispatch(["verify", str(behind_scene)]) == 1
        out = capsys.readouterr().out
        assert "FAIL" in out
        assert "(2)" in out


class TestStripeSimulate:
    def test_end_to_end_triangulation_error(self, behind_scene, tmp_path, capsys):
        out1 = tmp_path / "a"
        assert cli_dispatch(["stripe", str(behind_scene), "-o", str(out1)]) == 0
        assert (out1 / "striping.nc").exists()
        assert (out1 / "striping.csv").exists()
        assert cli_dispatch(["simulate", str(behind_scene), "-o", str(out1), "--raster", "48"]) == 0
        report = (out1 / "triangulation.csv").read_text().splitlines()
        assert report[0].startswith("stipple_id")
        row = report[1].split(",")
        err = float(row[5])
        assert err < 0.05 * 10.0  # |p_hat - p| < 0.05 |p_z|
        frames = sorted(out1.glob("frame_*.pgm"))
        assert len(frames) == 7

    def test_nearly_parallel_stereo_sightlines_write_an_inf_row(self, tmp_path):
        # at a 1e-10 degree baseline every stereo pair of this scene is near parallel (|d1 x d2| about
        # 2e-12) and one has a singular least-squares system: no row may report a point its rounding
        # placed, so each reads inf, as for parallel sightlines, or lies within 0.05 |p_z| of its
        # stipple, and no traceback is printed
        scene, out = tmp_path / "flat.txt", tmp_path / "sim"
        scene.write_text(STRIPE_FLAT_SEED_1)
        src = str(Path(cli.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        argv = ["simulate", str(scene), "-o", str(out), "--baseline-deg", "1e-10"]
        done = subprocess.run([sys.executable, "-m", "hologlint.cli", *argv], capture_output=True, text=True, env=env)
        assert done.returncode == 0 and "Traceback" not in done.stderr
        rows = [row.split(",") for row in (out / "triangulation.csv").read_text().splitlines()[1:]]
        assert len(rows) == 20 and any(row[2:] == ["inf"] * 5 for row in rows)
        depth = {s.stipple_id: abs(s.p[2]) for s in cli._pipeline(cli.scene_io.parse_scene(STRIPE_FLAT_SEED_1))[5]}
        for row in rows:
            assert row[2:] == ["inf"] * 5 or float(row[5]) <= 0.05 * depth[int(row[0])], row

    @pytest.mark.parametrize("baseline", ["nan", "inf", "-inf"])
    def test_non_finite_baseline_exits_1(self, behind_scene, tmp_path, capsys, baseline):
        out = tmp_path / "o"
        argv = ["simulate", str(behind_scene), "-o", str(out), f"--baseline-deg={baseline}"]
        assert cli_dispatch(argv) == 1
        err = capsys.readouterr().err
        assert err == f"error: stereo baseline must be finite, got {float(baseline)}\n"
        assert not out.exists()

    @pytest.mark.parametrize("baseline", ["0", "180", "-180", "720", "1e308"])
    def test_baseline_outside_the_open_half_turn_exits_1(
        self, behind_scene, tmp_path, capsys, baseline
    ):
        # 720 deg put both eyes at one azimuth (an inf row), 1e308 wrote a nan row
        out = tmp_path / "o"
        argv = ["simulate", str(behind_scene), "-o", str(out), f"--baseline-deg={baseline}"]
        assert cli_dispatch(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: stereo baseline must be 0 < |deg| < 180, got {float(baseline)}\n"
        assert not out.exists()

    def test_negative_baseline_is_accepted(self, behind_scene, tmp_path):
        out = tmp_path / "o"
        assert cli_dispatch(["simulate", str(behind_scene), "-o", str(out), "--baseline-deg=-3"]) == 0
        assert (out / "triangulation.csv").read_text().count("\n") == 2

    def test_byte_identical_reruns(self, behind_scene, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            assert cli_dispatch(["stripe", str(behind_scene), "-o", str(out)]) == 0
            assert (
                cli_dispatch(["simulate", str(behind_scene), "-o", str(out), "--raster", "32"])
                == 0
            )
        for name in ["striping.nc", "striping.csv", "triangulation.csv"]:
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
        frames_a = sorted(out_a.glob("frame_*.pgm"))
        frames_b = sorted(out_b.glob("frame_*.pgm"))
        assert [p.name for p in frames_a] == [p.name for p in frames_b]
        for pa, pb in zip(frames_a, frames_b):
            assert pa.read_bytes() == pb.read_bytes()


class TestRidgeCommand:
    def test_ridge_writes_obj(self, point_scene, tmp_path):
        out = tmp_path / "r"
        assert cli_dispatch(["ridge", str(point_scene), "-o", str(out)]) == 0
        objs = sorted(out.glob("ridge_*.obj"))
        assert len(objs) == 1
        assert objs[0].read_text().startswith("o ")

    def test_light_axis_parallel_to_the_host_is_unsupported(self, behind_scene, tmp_path, capsys):
        # an overhead sun (alpha_deg = 0) sends the foliation axis along the wall
        assert cli_dispatch(["ridge", str(behind_scene), "-o", str(tmp_path / "r")]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ridging needs the light axis to meet the host")
        assert "Traceback" not in captured.out + captured.err

    def test_colliding_footprints_error(self, tmp_path):
        scene = tmp_path / "collide.txt"
        scene.write_text(
            POINT_SCENE.replace(
                "0 0 5 1.0 -30 30 0", "0 0 5 1.0 -30 30 0\n0.5 0 5 1.0 -30 30 0"
            ),
            encoding="utf-8",
        )
        out = tmp_path / "rr"
        assert cli_dispatch(["ridge", str(scene), "-o", str(out)]) == 1

    @pytest.mark.parametrize("radius", ["nan", "inf", "0"])
    def test_footprint_radius_must_be_positive_and_finite(self, point_scene, tmp_path, capsys, radius):
        # ridge exits 1 and export skips its meshes; neither prints a traceback
        argv = [str(point_scene), "--max-radius", radius]
        assert cli_dispatch(["ridge", *argv, "-o", str(tmp_path / "r")]) == 1
        ridge = capsys.readouterr()
        assert ridge.err == "error: ridging footprint radius must be positive\n"
        out = tmp_path / "bundle"
        assert cli_dispatch(["export", *argv, "-o", str(out), "--raster", "8"]) == 0
        export = capsys.readouterr()
        assert export.err == "ridge export skipped: ridging footprint radius must be positive\n"
        assert not sorted(out.glob("ridge_*.obj"))
        assert "Traceback" not in ridge.out + export.out


class TestProfileCommand:
    def test_profile_prints_interval(self, behind_scene, capsys):
        assert cli_dispatch(["profile", str(behind_scene)]) == 0
        out = capsys.readouterr().out
        assert "angle interval" in out
        assert "deg" in out


class TestExportCommand:
    def test_export_writes_full_bundle(self, point_scene, tmp_path):
        out = tmp_path / "bundle"
        assert cli_dispatch(["export", str(point_scene), "-o", str(out), "--raster", "32"]) == 0
        assert (out / "striping.nc").exists()
        assert (out / "striping.csv").exists()
        assert sorted(out.glob("ridge_*.obj"))
        assert sorted(out.glob("frame_*.pgm"))

    def test_export_without_ridging_still_writes_bundle(self, behind_scene, tmp_path, capsys):
        out = tmp_path / "bundle"
        assert cli_dispatch(["export", str(behind_scene), "-o", str(out), "--raster", "24"]) == 0
        assert "ridge export skipped: ridging needs the light axis" in capsys.readouterr().err
        assert (out / "striping.nc").exists() and (out / "striping.csv").exists()
        assert len(sorted(out.glob("frame_*.pgm"))) == 7
        assert not sorted(out.glob("ridge_*.obj"))

    def test_export_has_no_baseline_option(self, point_scene, tmp_path):
        argv = [str(point_scene), "-o", str(tmp_path / "o"), "--baseline-deg", "3"]
        assert cli_dispatch(["export", *argv]) == 2

    def test_export_bundle_deterministic(self, point_scene, tmp_path):
        outs = []
        for run in ("a", "b"):
            out = tmp_path / run
            assert cli_dispatch(["export", str(point_scene), "-o", str(out), "--raster", "24"]) == 0
            outs.append({p.name: p.read_bytes() for p in out.iterdir()})
        assert outs[0] == outs[1]


class TestLineView:
    @pytest.mark.parametrize("command", ["stripe", "profile", "simulate", "export", "verify"])
    def test_striping_commands_fail_cleanly(self, tmp_path, capsys, command):
        scene = tmp_path / "line.txt"
        scene.write_text(LINE_SCENE, encoding="utf-8")
        output = ["-o", str(tmp_path / "out")] if command in ("stripe", "simulate", "export") else []
        assert cli_dispatch([command, str(scene), *output]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert "azimuth-parameterized view" in captured.err
        assert "Traceback" not in captured.out + captured.err

    def test_foliate_still_works(self, tmp_path, capsys):
        scene = tmp_path / "line.txt"
        scene.write_text(LINE_SCENE, encoding="utf-8")
        assert cli_dispatch(["foliate", str(scene)]) == 0
        assert "stipple 0: paraboloid" in capsys.readouterr().out


def _former_member_suite(spec, residual):
    """``verify``'s foliation-member suite as it was before it took each stipple's
    32 samples in one ``points_at`` call, kept verbatim as the oracle."""
    media, light, host, view, fab, stipples = cli._pipeline(spec)
    failures = []
    rng = np.random.default_rng(7)
    for s in stipples:
        kind = classify_member(s.p, host, light)
        try:
            anchor = cli._stipple_anchor(s.p, host, view)
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
        for _ in range(32):
            az = rng.uniform(-math.pi, math.pi)
            lat = rng.uniform(0.05, 0.45)
            try:
                pt = member.point_at(az, lat)
            except HologlintError:
                continue
            n = member.normal(pt)
            b1 = np.cross(n, np.array([0.0, 1.0, 0.0]))
            if np.linalg.norm(b1) < 1e-9:
                b1 = np.cross(n, np.array([1.0, 0.0, 0.0]))
            b1 /= np.linalg.norm(b1)
            b2 = np.cross(n, b1)
            real = member.kind in (ConicKind.ELLIPSOID, ConicKind.SPHERE) or member.paraboloid_sign < 0
            eye_pt = pt + 2.0 * ((s.p - pt) if real else (pt - s.p))  # past p iff p images really
            r = residual(TangentBasis(b1, b2, pt), light, eye_pt, media)
            if max(abs(r[0]), abs(r[1])) > 1e-9:
                failures.append(
                    f"(1) normality violated on the foliation member of stipple "
                    f"{s.stipple_id} at sample={pt}, residual={r}"
                )
                break
    return failures


def _one_basis(residuals):
    """The one-basis ``normality_residual`` form of a row-wise residual."""

    def residual(basis, light, eye, media):
        rows = [np.reshape(v, (1, 3)) for v in (basis.t1, basis.t2, basis.s)]
        return tuple(residuals(*rows, light, eye, media)[0].tolist())

    return residual


@pytest.mark.parametrize("light", ["type = directional\nalpha_deg = 60", "type = point\nposition = 5 40 60"])
def test_member_suite_fail_lines_match_the_per_sample_loop(tmp_path, capsys, monkeypatch, light):
    # member samples off the host fail on one side of a tilted plane, so most
    # stipples stop at their first failure, after a different number of samples
    exact = simulate.normality_residuals

    def residuals(t1s, t2s, xs, light, eye, media):
        r = exact(t1s, t2s, xs, light, eye, media)
        r[(np.abs(xs[:, 2]) > 1e-6) & (xs[:, 0] + 0.5 * xs[:, 1] > 4.0), 0] += 1.0
        return r

    residual = _one_basis(residuals)
    monkeypatch.setattr(simulate, "normality_residuals", residuals)
    text = (
        f"[light]\n{light}\n\n[view]\nsamples = 5\n\n[stipples]\n"
        "0 0 -10 1.0 -45 45 0\n12 5 -6 1.0 -20 30 0\n-8 -5 -14 1.0 -30 10 0\n"
        "3 -4 6 1.0 -30 30 0\n-6 2 -9 1.0 -30 30 0\n"
    )
    scene = tmp_path / "members.txt"
    scene.write_text(text, encoding="utf-8")
    cli_dispatch(["verify", str(scene)])
    lines = capsys.readouterr().out.splitlines()
    got = [line[len("FAIL ") :] for line in lines if "foliation member" in line]
    want = _former_member_suite(cli.scene_io.parse_scene(text), residual)
    assert len(want) >= 3 and got == want


# ---- ``verify`` as it was before its suites moved into ``simulate.verify_suites``:
# one Python iteration per sample.  ``_former_cmd_verify`` is kept verbatim as the
# oracle; the names it looks up resolve to the CLI's, except ``normality_residual``,
# which a test may replace with the same fault it puts into the row-wise residual.


def _load(path):
    return cli._load(path)


def _make_striping(spec):
    return cli._make_striping(spec)


def _stipple_anchor(p, host, view):
    return cli._stipple_anchor(p, host, view)


normality_residual = geom.normality_residual


def _former_cmd_verify(args) -> int:
    spec = _load(args.scene)
    media, light, host, view, fab, stipples, striping = _make_striping(spec)
    failures: list[str] = []

    # constraint (1), normality, along every arc; (3), conformance, per sample
    for arc in striping.arcs:
        sid = arc.stipple.stipple_id
        tp = arc.toolpath
        for theta, position, t1, axis in zip(tp.thetas.tolist(), tp.positions, tp.t1, tp.axes):
            t2 = np.cross(t1, axis)
            basis = TangentBasis(t1, t2, position)
            r1 = normality_residual(basis, light, view.eye_at(theta), media)
            scale = max(1.0, float(np.linalg.norm(t1)) * float(np.linalg.norm(axis)))
            if max(abs(r1[0]), abs(r1[1])) / scale > 1e-9:
                failures.append(
                    f"(1) normality violated at stipple {sid}, "
                    f"theta={math.degrees(theta):.4f} deg, sample={position}, "
                    f"residual={r1}"
                )
            dist = conformance_distance(position, host)
            if dist > fab.delta + 1e-9:
                failures.append(
                    f"(3) conformance violated at stipple {sid}, "
                    f"theta={math.degrees(theta):.4f} deg, distance={dist:.6g} mm "
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


def _fault_residual(monkeypatch):
    """(1) fails at every sample, on an arc or a member, right of a tilted line."""
    exact = simulate.normality_residuals

    def residuals(t1s, t2s, xs, light, eye, media):
        r = exact(t1s, t2s, xs, light, eye, media)
        r[xs[:, 0] + 0.5 * xs[:, 1] > 4.0, 0] += 1e-6
        return r

    monkeypatch.setattr(simulate, "normality_residuals", residuals)
    monkeypatch.setitem(globals(), "normality_residual", _one_basis(residuals))


def _faulty_striping(monkeypatch, change):
    made = cli._make_striping
    monkeypatch.setattr(cli, "_make_striping", lambda spec: change(*made(spec)))


def _fault_shell(monkeypatch):
    """(3) fails wherever an arc leaves a shell 10^4 times thinner than it was cut for."""

    def shrink(media, light, host, view, fab, stipples, striping):
        thin = replace(fab, delta=fab.delta / 1e4)
        return media, light, host, view, thin, stipples, replace(striping, fab=thin)

    _faulty_striping(monkeypatch, shrink)


def _fault_grown(monkeypatch):
    """(3) fails where the arcs leave a shell 10^4 times thinner than they were cut for (with
    ``_fault_shell``): the sphere host grows by 1 um about its centre."""

    def grow(media, light, host, view, fab, stipples, striping):
        return media, light, replace(host, radius=host.radius + 1e-3), view, fab, stipples, striping

    _faulty_striping(monkeypatch, grow)


def _fault_shift(monkeypatch):
    """(2) fails at every arc: each moves 1 mm along +y, off its stipple's sightlines."""

    def shift(*made):
        *pipeline, striping = made
        arcs = tuple(replace(a, toolpath=replace(a.toolpath, positions=a.toolpath.positions + [0.0, 1.0, 0.0]))
                     for a in striping.arcs)
        return (*pipeline, replace(striping, arcs=arcs))

    _faulty_striping(monkeypatch, shift)


def _fault_host(monkeypatch):
    """(3) fails where the arcs are far from the y axis: the host turns by 3 degrees about it."""

    def tilt(media, light, host, view, fab, stipples, striping):
        normal = geom.vec3(math.sin(math.radians(3)), 0.0, math.cos(math.radians(3)))
        return media, light, geom.PlaneHost(normal=normal), view, fab, stipples, striping

    _faulty_striping(monkeypatch, tilt)


def _fault_basis(monkeypatch):
    """The last arc's middle sample gets an axis along its tangent: a deficient basis."""

    def deficient(*made):
        *pipeline, striping = made
        arc = striping.arcs[-1]
        axes = arc.toolpath.axes.copy()
        j = len(axes) // 2
        axes[j] = 2.0 * arc.toolpath.t1[j]
        arc = replace(arc, toolpath=replace(arc.toolpath, axes=axes))
        return (*pipeline, replace(striping, arcs=(*striping.arcs[:-1], arc)))

    _faulty_striping(monkeypatch, deficient)


_VERIFY_SCENES = {
    "flat": "[light]\ntype = directional\nalpha_deg = 30\n\n[view]\nsamples = 7\n\n"
    "[fab]\nstep_deg = 0.5\n\n[stipples]\n"
    "0 0 -10 1.0 -45 45 0\n12 5 6 1.0 -20 30 0\n-8 -5 -14 1.0 -30 10 0\n",
    "sphere": "[light]\ntype = point\nposition = 0 300 600\n\n"
    "[host]\ntype = sphere\ncenter = 0 0 -200\nradius = 200\n\n"
    "[view]\ntype = orbit\nradius = 500\ntheta_min_deg = -30\ntheta_max_deg = 30\nsamples = 7\n\n"
    "[fab]\nstep_deg = 0.5\n\n[stipples]\n10 -5 6 1.0 -20 20 0\n-12 8 -9 1.0 -25 15 0\n",
    "strict": BEHIND_SCENE + "\n[fab]\ntool_radius = 0\nstep_deg = 0.5\n",
}


@pytest.mark.parametrize(
    "scene, faults, expect",
    [
        ("flat", (), "verify: all residual suites passed"),
        ("flat", (_fault_residual,), "FAIL (1)"),
        ("flat", (_fault_host,), "FAIL (3)"),
        ("flat", (_fault_basis,), "error: tangent basis is deficient"),
        ("flat", (_fault_residual, _fault_basis), "error: tangent basis is deficient"),
        ("sphere", (_fault_residual,), "FAIL (1)"),
        ("sphere", (_fault_shell, _fault_grown), "FAIL (3)"),
        ("sphere", (_fault_basis,), "error: tangent basis is deficient"),
        ("strict", (_fault_residual, _fault_host, _fault_shift), "FAIL (2)"),
    ],
)
def test_verify_matches_the_former_per_sample_loop(tmp_path, capsys, monkeypatch, scene, faults, expect):
    path = tmp_path / f"{scene}.txt"
    path.write_text(_VERIFY_SCENES[scene], encoding="utf-8")
    for fault in faults:
        fault(monkeypatch)
    runs = []
    for command in (cli.cmd_verify, _former_cmd_verify):
        monkeypatch.setattr(cli, "cmd_verify", command)
        rc = cli_dispatch(["verify", str(path)])
        runs.append((rc, *capsys.readouterr()))
    assert runs[0] == runs[1]
    assert expect in runs[0][1] + runs[0][2]
