"""The batch striping kernel: rows equal one-stipple integrations bit for bit,
the stripe/simulate bundles keep their pinned bytes and the toolpath readers
their pinned values."""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import hologlint as hg
from hologlint import cli, scene as scene_io
from hologlint.cli import cli_dispatch
from hologlint.errors import HologlintError
from hologlint.striping import _anchored_toolpath, _toolpaths

FLAT = (hg.PlaneHost(), hg.DirectionalLight(math.radians(30)), hg.InfinityView(-math.pi / 4, math.pi / 4))
SPHERE = (
    hg.SphereHost(hg.vec3(0, 0, -200), 200.0),
    hg.PointLight(hg.vec3(0, 300, 600)),
    hg.OrbitView(hg.vec3(0, 0, 0), 500.0, 0.0, -math.pi / 6, math.pi / 6),
)


def _outcome(fn):
    """A toolpath as exact bytes, or the error it raised."""
    try:
        path = fn() if callable(fn) else fn
    except HologlintError as exc:
        return type(exc).__name__, str(exc)
    if isinstance(path, HologlintError):
        return type(path).__name__, str(path)
    return (
        *(getattr(path, f).tobytes() for f in ("thetas", "positions", "t1", "axes")),
        path.breaks,
        path.warnings,
        path.c0,
    )


def _assert_rows_match(config, stipples, c0s, step, anchored):
    host, light, view = config
    centers = [
        0.5 * (max(view.theta_min, s.window[0]) + min(view.theta_max, s.window[1])) for s in stipples
    ]
    if anchored:  # the polish starts from the closed form, or from C0 = 0 for point lights
        c0s = [0.0] * len(stipples)
    batch = _toolpaths(
        host, stipples, light, view, step, c0s, 0.0, theta_c=centers if anchored else None
    )
    for s, c0, tc, row in zip(stipples, c0s, centers, batch):
        if anchored:
            one = _outcome(lambda: _anchored_toolpath(host, s, light, view, tc, step))
        else:
            one = _outcome(lambda: hg.integrate_toolpath(host, s, light, view, c0, 0.0, step))
        assert _outcome(row) == one
    return batch


@st.composite
def stipple_sets(draw, half_view):
    stipples = []
    for idx in range(draw(st.integers(1, 5))):
        x = draw(st.floats(-40.0, 40.0))
        y = draw(st.floats(-20.0, 20.0))
        z = draw(st.floats(3.0, 15.0)) * draw(st.sampled_from([-1.0, 1.0]))
        center = draw(st.floats(-half_view, half_view))
        width = draw(st.floats(0.05, 0.6))
        window = (center - 0.5 * width, center + 0.5 * width)
        stipples.append(hg.Stipple(hg.vec3(x, y, z), window=window, stipple_id=idx))
    c0s = [draw(st.floats(-2.0, 2.0)) for _ in stipples]
    return stipples, c0s


BATCH_SETTINGS = settings(
    max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


class TestBatchRowsEqualOneRowCalls:
    @BATCH_SETTINGS
    @given(stipple_sets(0.7), st.sampled_from([0.5, 1.0]), st.booleans())
    def test_flat_directional_infinity(self, drawn, step_deg, anchored):
        stipples, c0s = drawn
        _assert_rows_match(FLAT, stipples, c0s, math.radians(step_deg), anchored)

    @BATCH_SETTINGS
    @given(stipple_sets(0.45), st.sampled_from([0.5, 1.0]), st.booleans())
    def test_sphere_point_orbit(self, drawn, step_deg, anchored):
        stipples, c0s = drawn
        _assert_rows_match(SPHERE, stipples, c0s, math.radians(step_deg), anchored)

    def test_sightline_miss_truncates_only_its_row(self):
        host = hg.SphereHost(hg.vec3(0, 0, -40), 40.0)
        config = (host, hg.DirectionalLight(0.5), hg.InfinityView(-1.4, 1.4))
        c = 0.23550321851880018
        stipples = [
            hg.Stipple(hg.vec3(-5.0, 2.0, 6.0), window=(-0.3, 0.2), stipple_id=0),
            hg.Stipple(
                hg.vec3(-28.30081973127222, -7.514334470008722, 0.11873244080890899),
                window=(c - 0.5, c + 0.5),
                stipple_id=1,
            ),
            hg.Stipple(hg.vec3(3.0, -1.0, 4.0), window=(-0.1, 0.3), stipple_id=2),
        ]
        batch = _assert_rows_match(config, stipples, [0.3] * 3, math.radians(1.0), False)
        assert batch[1].warnings[-1] == "sightline missed the host at theta=0.321710; truncated"
        assert not batch[0].warnings and not batch[2].warnings
        assert batch[1].thetas[-1] < 0.32171 < c + 0.5  # stopped short of the window end

    def test_degenerate_tangent_splits_only_its_row(self):
        # a point light level with p: the anchored start has t1_x = 0 exactly
        wall, view = hg.PlaneHost(), hg.InfinityView(-1.0, 1.0)
        stipples = [
            hg.Stipple(hg.vec3(3.0, 2.0, -8.0), window=(-0.3, 0.3), stipple_id=0),
            hg.Stipple(hg.vec3(-4.0, 5.0, 6.0), window=(-0.2, 0.4), stipple_id=1),
        ]
        config = (wall, hg.PointLight(hg.vec3(0.0, 2.0, 30.0)), view)
        batch = _assert_rows_match(config, stipples, [0.0, 0.7], math.radians(1.0), False)
        assert batch[0].breaks and all(b == 1 for b in batch[0].breaks)
        assert "split" in batch[0].warnings[0]
        assert not batch[1].breaks and len(batch[1].thetas) > 2

    def test_error_rows_keep_their_one_row_errors(self):
        stipples = [
            hg.Stipple(hg.vec3(0.0, 0.0, -10.0), window=(-0.2, 0.2), stipple_id=0),
            hg.Stipple(hg.vec3(1.0, 0.0, 0.0), window=(-0.2, 0.2), stipple_id=1),
            hg.Stipple(hg.vec3(2.0, 0.0, 5.0), window=(1.0, 1.2), stipple_id=2),
        ]
        for anchored in (False, True):
            batch = _assert_rows_match(FLAT, stipples, [0.0] * 3, math.radians(1.0), anchored)
            assert [type(row).__name__ for row in batch] == [
                "Toolpath", "DegenerateGeometryError", "DomainError"
            ]


    def test_striping_with_no_window_in_view(self):
        host, light, view = FLAT
        stipple = hg.Stipple(hg.vec3(0.0, 0.0, -10.0), window=(1.0, 1.2))
        striping = hg.make_striping([stipple], light, host, view, hg.FabricationParams())
        assert [reason for _, reason in striping.rejected] == [
            "visibility window outside the view range"
        ]


STRIPE_FLAT_SEED_1 = """\
[light]
type = directional
alpha_deg = 30

[view]
type = infinity
theta_min_deg = -45
theta_max_deg = 45
samples = 31

[stipples]
55.992 -3.245 8.177 1.0 0.562 17.516 0
51.395 34.175 -3.910 1.0 -9.760 5.687 0
21.767 -24.289 -6.320 1.0 -29.218 4.103 0
22.357 22.025 6.884 1.0 -7.018 30.930 0
50.825 4.698 5.721 1.0 5.474 34.380 0
16.882 -5.562 10.579 1.0 -21.595 13.359 0
-15.030 30.123 4.585 1.0 19.817 39.745 0
-16.652 -5.587 -5.130 1.0 -20.459 3.748 0
-14.910 -30.010 -8.644 1.0 -40.080 -18.645 0
-2.817 -3.444 14.072 1.0 -37.410 -5.703 0
23.411 6.936 -13.477 1.0 -2.528 24.875 0
-57.423 -3.900 -7.414 1.0 -31.205 -19.037 0
-55.528 4.619 9.226 1.0 -11.167 14.690 0
8.066 10.773 -9.812 1.0 13.106 43.233 0
-22.250 3.636 3.258 1.0 -42.663 -31.824 0
-48.380 33.900 12.881 1.0 -29.558 -6.610 0
0.530 34.219 11.784 1.0 -19.988 -6.154 0
49.917 -25.127 -11.152 1.0 -0.738 38.530 0
-2.597 -29.130 -14.781 1.0 -14.033 22.085 0
-51.909 -26.110 -12.323 1.0 10.987 29.057 0
"""

STRIPE_SPHERE_SEED_1 = """\
[light]
type = point
position = 0 300 600

[host]
type = sphere
center = 0 0 -200
radius = 200

[view]
type = orbit
radius = 500
theta_min_deg = -30
theta_max_deg = 30
samples = 31

[stipples]
37.699 12.846 13.960 1.0 -18.632 1.302 0
3.696 -12.996 4.164 1.0 -24.763 -12.768 0
-19.562 -1.988 11.344 1.0 -14.744 12.916 0
19.357 -15.933 -9.242 1.0 1.016 16.450 0
-26.379 -3.801 -6.258 1.0 2.998 26.435 0
"""

# sha256 of each artifact, taken with the per-stipple scalar integrator this kernel replaced
PINNED = {
    "stripe-flat": (
        STRIPE_FLAT_SEED_1,
        {
            "striping.nc": "892f08e535b6160a2b4614e422611e6e7a85633917508316696250cdddef3272",
            "striping.csv": "7221635d94b6479f9faf15b8575fd7ef51d8cadd0aa8f43f91d4d3bcd1c0924d",
            "triangulation.csv": "d14bc4e9e3b8208e5c7b109a5489217ed7919a3636d4bb0e7596dbee16ed4692",
            "frames": "152cf62d131bc69bba05aca20e9ad22cc0d1a587b446e69d8efe3a6217959b43",
        },
    ),
    "stripe-sphere": (
        STRIPE_SPHERE_SEED_1,
        {
            "striping.nc": "aee5e480b0bc5127a29c36a33185c1aebec74ee73bd993335f97b8beb9e067bb",
            "striping.csv": "8325e9a2a7c8fd70e4819cf3d66ec7492131d03e54b111f277fc463b45766440",
            "triangulation.csv": "64a5508d0bb317635e9478f1c0ee7923622288272ea6070c6bf768c2e1dbd49a",
            "frames": "3eec43122f4058c0344cd6fcf611e59b950190a3ecfe7fa64c52eb7428e55f00",
        },
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_stripe_and_simulate_bundles_keep_their_bytes(tmp_path, name, capsys):
    text, want = PINNED[name]
    scene = tmp_path / "scene.txt"
    scene.write_text(text, encoding="utf-8")
    assert cli_dispatch(["stripe", str(scene), "-o", str(tmp_path / "stripe")]) == 0
    assert cli_dispatch(["simulate", str(scene), "-o", str(tmp_path / "simulate")]) == 0
    got = {
        f: hashlib.sha256((tmp_path / d / f).read_bytes()).hexdigest()
        for d, f in (("stripe", "striping.nc"), ("stripe", "striping.csv"),
                     ("simulate", "triangulation.csv"))
    }
    frames = hashlib.sha256()
    paths = sorted((tmp_path / "simulate").glob("frame_*.pgm"))
    assert len(paths) == 31
    for path in paths:
        frames.update(path.read_bytes())
    got["frames"] = frames.hexdigest()
    assert got == want


@pytest.mark.parametrize("name", sorted(PINNED))
def test_scene_rows_equal_one_stipple_anchoring(name):
    # rows converge in different polish rounds; each must still match its own run
    spec = scene_io.parse_scene(PINNED[name][0])
    config = (scene_io.build_host(spec), scene_io.build_light(spec), scene_io.build_view(spec))
    stipples = scene_io.build_stipples(spec)
    step = scene_io.integration_step(spec)
    _assert_rows_match(config, stipples, [0.0] * len(stipples), step, anchored=True)


# float.hex of what the toolpath readers return on the PINNED scenes, taken with the
# per-sample toolpath objects the arrays replaced: bit_profile_for's angle interval,
# its point count and the sha256 of its points' float.hex text; then the verify_suites
# maxima of normality, colinearity, conformance and member normality
READERS = {
    "stripe-flat": (
        ("0x1.afd7e30fe131fp-1", "0x1.0c15236af9f6dp+0"),
        26,
        "ac241ee379af6ad79c10b646126c2a45dd8c7c0ee200edd76dfaa27cfd78830f",
        ("0x1.127ca31c17b33p-52", "0x1.6f790ff6cbee7p-8", "0x0.0p+0", "0x1.7c0ae962c1452p-52"),
    ),
    "stripe-sphere": (
        ("0x1.244b52f5ed292p+0", "0x1.507ccf31f9d84p+0"),
        22,
        "c0d22f91bd99a5f3f20085c7a74280d7c9b99fc14e5d50f6576a6828ad9c497b",
        ("0x1.484930e8bf07ep-53", "0x1.7272b9342923bp-8", "0x1.1bbd5db0768b4p-12", "0x1.92acc83397e22p-52"),
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_toolpath_readers_keep_their_values(name):
    spec = scene_io.parse_scene(PINNED[name][0])
    media, light, host, view, _, stipples, striping = cli._make_striping(spec)
    profile = hg.bit_profile_for(striping)
    points = " ".join(v.hex() for point in profile.points for v in point)
    members = [
        (s, cli._stipple_member(s.p, hg.classify_member(s.p, host, light), media, light, host, view))
        for s in stipples
    ]
    report = hg.verify_suites(striping, members, light, host, view, media)
    maxima = (report.normality, report.colinearity, report.conformance, report.member_normality)
    assert (
        tuple(a.hex() for a in profile.angle_interval),
        len(profile.points),
        hashlib.sha256(points.encode()).hexdigest(),
        tuple(float(m).hex() for m in maxima),
    ) == READERS[name]
