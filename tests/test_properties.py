"""Properties over generated small scenes: every scene that ``parse_scene``
accepts makes each subcommand succeed or exit 1 with a message, never a
traceback; and the residual suites find no violation on the exact foliation
members that ``foliation`` builds, conics and Cartesian ovals of either
index order.

Scenes stay small (one or two stipples, a few views, a coarse integration
step) so that each example runs in a fraction of a second.
"""

import contextlib
import io

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hologlint import cli
from hologlint.errors import HologlintError, SceneParseError
from hologlint.scene import parse_scene
from hologlint.simulate import verify_suites
from hologlint.striping import Striping

SETTINGS = settings(max_examples=12, deadline=None, suppress_health_check=[HealthCheck.too_slow])

coordinate = st.floats(-30.0, 30.0, allow_nan=False).map(lambda v: round(v, 3))
depth = st.floats(2.0, 15.0).map(lambda v: round(v, 3))


@st.composite
def scenes(draw) -> str:
    """A small scene document; some are rejected by ``parse_scene``."""
    if draw(st.booleans()):
        light = f"type = directional\nalpha_deg = {draw(st.sampled_from([0, 30, 60, 89]))}"
    else:
        x, y = draw(coordinate), draw(coordinate)
        light = f"type = point\nposition = {x} {y} {draw(st.floats(15.0, 80.0)):.3f}"
    host = draw(
        st.sampled_from(
            [
                "",
                "[host]\ntype = sphere\ncenter = 0 0 -100\nradius = 100\n",
                "[host]\ntype = sphere\ncenter = 0 0 100\nradius = 100\nside = inside\n",
            ]
        )
    )
    view = draw(st.sampled_from(["infinity", "orbit\nradius = 400"]))
    samples = draw(st.integers(2, 4))
    media = draw(st.sampled_from(["", "[media]\neta2 = 1.5\n", "[media]\neta1 = 1.5\n"]))
    fab = (
        f"[fab]\ndelta = {draw(st.sampled_from([0.1, 0.5, 2.0]))}\n"
        f"tool_radius = {draw(st.sampled_from([0, 0.2, 1]))}\n"
        f"step_deg = {draw(st.sampled_from([0.5, 1.0]))}\n"
    )
    stipples = []
    for _ in range(draw(st.integers(1, 2))):
        x, y, z = draw(coordinate), draw(coordinate), draw(depth) * draw(st.sampled_from([-1, 1]))
        lo, hi = draw(st.integers(-45, -5)), draw(st.integers(5, 45))
        stipples.append(f"{x} {y} {z} 1.0 {lo} {hi} {draw(st.integers(0, 2))}")
    return (
        f"[light]\n{light}\n\n{host}\n[view]\ntype = {view}\nsamples = {samples}\n\n"
        f"{media}\n{fab}\n[stipples]\n" + "\n".join(stipples) + "\n"
    )


def _dispatch(argv) -> int:
    """``cli_dispatch`` with its output captured: it must hold no traceback, and a
    failing command other than ``verify`` says why on stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.cli_dispatch(argv)
    assert "Traceback" not in out.getvalue() + err.getvalue()
    if rc == 1 and argv[0] != "verify":
        assert err.getvalue().startswith("error: "), (argv, err.getvalue())
    return rc


@SETTINGS
@given(scenes())
def test_accepted_scenes_exit_cleanly(tmp_path_factory, text):
    try:
        parse_scene(text)
    except SceneParseError:
        return
    work = tmp_path_factory.mktemp("scene")
    path = work / "scene.txt"
    path.write_text(text, encoding="utf-8")
    runs = {
        "stripe": ["-o", str(work / "stripe")],
        "simulate": ["-o", str(work / "simulate"), "--raster", "8"],
        "verify": [],
    }
    for command, extra in runs.items():
        # an exception other than a HologlintError escapes cli_dispatch and fails the test
        assert _dispatch([command, str(path), *extra]) in (0, 1), (command, text)


@SETTINGS
@pytest.mark.parametrize("command", ["foliate", "ridge", "profile", "export"])
@given(scenes(), st.sampled_from(["0.5", "6"]))
def test_accepted_scenes_exit_cleanly_from_the_other_subcommands(tmp_path_factory, command, text, max_radius):
    try:
        parse_scene(text)
    except SceneParseError:
        return
    work = tmp_path_factory.mktemp("scene")
    path = work / "scene.txt"
    path.write_text(text, encoding="utf-8")
    extra = {
        "foliate": [],
        "ridge": ["-o", str(work / "ridge"), "--max-radius", max_radius],
        "profile": [],
        "export": ["-o", str(work / "export"), "--max-radius", max_radius, "--raster", "8"],
    }[command]
    assert _dispatch([command, str(path), *extra]) in (0, 1), (command, text)


@SETTINGS
@given(scenes())
def test_exact_members_have_no_residual(text):
    try:
        spec = parse_scene(text)
    except SceneParseError:
        return
    media, light, host, view, fab, stipples = cli._pipeline(spec)
    members = []
    for s in stipples:
        try:
            kind = cli.classify_member(s.p, host, light)
            members.append((s, cli._stipple_member(s.p, kind, media, light, host, view)))
        except HologlintError:
            continue
    report = verify_suites(Striping((), fab), members, light, host, view, media)
    assert report.member_normality <= 1e-9, text
    assert report.failures == (), text
