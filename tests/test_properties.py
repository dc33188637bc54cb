"""Properties over generated small scenes: every scene that ``parse_scene``
accepts makes each subcommand succeed or exit 1 with a message, never a
traceback; the residual suites find no violation on the exact foliation
members that ``foliation`` builds, conics and Cartesian ovals of either
index order; and every arc that ``stripe`` accepts crosses its stipple's
specularity curve at its window centre theta_c.

Scenes stay small (one or two stipples, a few views, a coarse integration
step) so that each example runs in a fraction of a second.
"""

import contextlib
import io
import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hologlint import cli
from hologlint.errors import HologlintError, SceneParseError
from hologlint.foliation import CartesianOval, ConicSurface
from hologlint.scene import parse_scene
from hologlint.simulate import verify_suites
from hologlint.striping import Striping, _vertical_gaps

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


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(scenes())
def test_accepted_arcs_cross_the_specularity_curve_at_theta_c(text):
    # each toolpath starts on the curve at theta_c, and its arc keeps that sample
    try:
        spec = parse_scene(text)
        _, _, host, view, _, _, striping = cli._make_striping(spec)
    except HologlintError:  # SceneParseError included
        return
    for arc in striping.arcs:
        path, p = arc.toolpath, arc.stipple.p
        at = path.thetas == arc.theta_c
        assert at.sum() == 1, text
        gap = _vertical_gaps(host, view, p, path.thetas[at], path.positions[at])[0]
        assert abs(gap) <= 1e-12 * max(1.0, math.hypot(*p)), text


def _members(spec):
    """The scene's pipeline and its stipples' exact members, as ``verify`` builds them."""
    media, light, host, view, fab, stipples = cli._pipeline(spec)
    members = []
    for s in stipples:
        try:
            kind = cli.classify_member(s.p, host, light)
            members.append((s, cli._stipple_member(s.p, kind, media, light, host, view)))
        except HologlintError:
            continue
    return members, (light, host, view, media), fab


@SETTINGS
@given(scenes())
def test_exact_members_have_no_residual(text):
    try:
        spec = parse_scene(text)
    except SceneParseError:
        return
    members, scene, fab = _members(spec)
    report = verify_suites(Striping((), fab), members, *scene)
    assert report.member_normality <= 1e-9, text
    assert report.failures == (), text


@pytest.mark.parametrize("media, cls", [("", ConicSurface), ("[media]\neta2 = 1.5\n", CartesianOval)])
@pytest.mark.parametrize(
    "patch, name, text",
    [
        (lambda f: lambda self, xs: -f(self, xs), "normal_many", "normal faces away from the glint axis on"),
        (lambda f: lambda self, az, lat: f(self, az, lat) * (1.0 + 1e-6), "points_at", "sample lies off"),
    ],
    ids=["negated-normal", "off-member"],
)
def test_member_suite_sees_a_wrong_normal_sign_and_an_off_member_sample(media, cls, patch, name, text, monkeypatch):
    # a gradient normal and the glint axis keep their tangent plane at any point, whichever way
    # the normal faces: only the sign and the implicit function see these faults
    spec = parse_scene("[light]\ntype = point\nposition = 0 20 40\n\n[view]\ntype = infinity\n\n"
                       f"{media}\n[stipples]\n5 -3 -8 1.0 -30 30 0\n-4 6 9 1.0 -30 30 0\n")
    members, scene, fab = _members(spec)
    assert len(members) == 2 and all(isinstance(m, cls) for _, m in members)
    assert verify_suites(Striping((), fab), members, *scene).failures == ()
    monkeypatch.setattr(cls, name, patch(getattr(cls, name)))
    failures = verify_suites(Striping((), fab), members, *scene).failures
    assert len(failures) == 2 and all(f.startswith(f"(1) {text} the foliation member") for f in failures)
