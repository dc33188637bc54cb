"""The segmented bar clip: one pass over the sample table keeps what the former per-arc clip
kept, with the same keep mask, rejection texts and arcs, on generated flat and sphere scenes
with weights in [0, 1], a bar that holds only the theta_c sample, and the truncated and split
toolpaths of ``tests/test_striping_batch.py``."""

import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import hologlint as hg
from hologlint.errors import DegenerateGeometryError
from hologlint.striping import _NO_UP, _Batch, _bar_clip, _table, _toolpaths, _vertical_gaps

FLAT = (hg.PlaneHost(), hg.DirectionalLight(math.radians(30)), hg.InfinityView(-math.pi / 4, math.pi / 4))
SPHERE = (
    hg.SphereHost(hg.vec3(0, 0, -200), 200.0),
    hg.PointLight(hg.vec3(0, 300, 600)),
    hg.OrbitView(hg.vec3(0, 0, 0), 500.0, 0.0, -math.pi / 6, math.pi / 6),
)


def clipped(path, theta_a, theta_b):
    """The former ``Toolpath.clipped``: the samples with theta in [theta_a, theta_b], and no breaks."""
    k = path.within(theta_a, theta_b)
    rows = {f: getattr(path, f)[k] for f in ("thetas", "positions", "t1", "axes")}
    return replace(path, **rows, breaks=())


def bar_clip(stipple, path, gaps, theta_c, bar_half):
    """The former per-arc ``striping._bar_clip``, verbatim but for ``clipped``."""
    thetas = path.thetas
    if np.isnan(gaps).any():
        raise DegenerateGeometryError(_NO_UP)
    inside = np.abs(gaps) <= bar_half + 1e-12
    ic = int(np.argmin(np.abs(thetas - theta_c)))
    out = np.flatnonzero(~inside)  # the run is bounded by the nearest outside samples
    lo_run = thetas[out[out < ic].max(initial=-1) + 1]
    hi_run = thetas[out[out > ic].min(initial=len(inside)) - 1]
    if lo_run == hi_run:
        return "arc crosses the specularity bar within one step"
    w = stipple.weight  # linear weight clip about the window center
    clipped_path = clipped(path, theta_c - w * (theta_c - lo_run), theta_c + w * (hi_run - theta_c))
    if len(clipped_path.thetas) < 2:
        return "empty arc after bar clipping"
    return hg.StripeArc(clipped_path, float(clipped_path.thetas[0]), float(clipped_path.thetas[-1]), stipple, theta_c)


def oracle_clip(config, stipple, step, bar_half):
    """One stipple's arc or rejection text through its own toolpath, gaps and ``bar_clip``."""
    host, light, view = config
    lo, hi = max(view.theta_min, stipple.window[0]), min(view.theta_max, stipple.window[1])
    if not lo < hi:
        return "visibility window outside the view range"
    theta_c = 0.5 * (lo + hi)
    (path,) = _toolpaths(host, [stipple], light, view, step, [0.0], theta_c=[theta_c])
    if isinstance(path, Exception):
        return f"toolpath failed: {path}"
    gaps = _vertical_gaps(host, view, stipple.p, path.thetas, path.positions)
    return bar_clip(stipple, path, gaps, theta_c, bar_half)


def arc_outcome(arc):
    """An arc as exact bytes and values, or its rejection text."""
    if isinstance(arc, str):
        return arc
    tp = arc.toolpath
    return (
        *(getattr(tp, f).tobytes() for f in ("thetas", "positions", "t1", "axes")),
        tp.c0, tp.c1, tp.host, tp.breaks, tp.warnings, arc.theta_a, arc.theta_b, arc.theta_c, arc.stipple,
    )


def segmented(config, stipples, step, bar_half):
    """The segmented clip of one table of anchored toolpaths: its keep mask, kept counts and texts,
    and the table's thetas, offsets and theta_c rows of the stipples with a toolpath."""
    host, light, view = config
    centers = [0.5 * (max(view.theta_min, s.window[0]) + min(view.theta_max, s.window[1])) for s in stipples]
    _, rows, _, (thetas, pos, _, _, offsets, centre, _, _) = _table(
        host, stipples, light, view, step, [0.0] * len(stipples), theta_c=centers
    )
    live = np.flatnonzero(np.diff(offsets))
    at = rows[live]
    ps = np.reshape([stipples[i].p for i in at], (-1, 3))
    gaps = _vertical_gaps(host, view, np.repeat(ps, np.diff(offsets)[live], axis=0), thetas, pos)
    starts = np.r_[offsets[live], len(thetas)]
    weights = np.array([stipples[i].weight for i in at])
    return _bar_clip(thetas, gaps, starts, centre[live], weights, bar_half), at, thetas, starts, centre[live]


def assert_clip_matches(config, stipples, step, bar_half):
    """The segmented clip keeps, per stipple, the oracle's samples and gives its texts; a
    striping with no clearance (every clipped arc placed) holds the oracle's arcs."""
    (keep, counts, texts), at, thetas, starts, centre = segmented(config, stipples, step, bar_half)
    for n, i in enumerate(at):
        want = oracle_clip(config, stipples[i], step, bar_half)
        a, z = starts[n], starts[n + 1]
        assert texts[n] == (want if isinstance(want, str) else None)
        mask = np.zeros(z - a, dtype=bool) if isinstance(want, str) else np.isin(thetas[a:z], want.toolpath.thetas)
        assert keep[a:z].tolist() == mask.tolist() and counts[n] == mask.sum()
        assert thetas[centre[n]] == 0.5 * (max(config[2].theta_min, stipples[i].window[0])
                                           + min(config[2].theta_max, stipples[i].window[1]))
    host, light, view = config
    striping = hg.make_striping(stipples, light, host, view, hg.FabricationParams(delta=bar_half, tool_radius=0.0),
                                step=step)
    order = sorted(stipples, key=lambda s: (-s.priority, -s.weight, s.stipple_id))
    want = [oracle_clip(config, s, step, bar_half) for s in order]
    assert [arc_outcome(arc) for arc in striping.arcs] == [arc_outcome(w) for w in want if not isinstance(w, str)]
    assert [(s, why) for s, why in striping.rejected] == [(s, w) for s, w in zip(order, want) if isinstance(w, str)]
    return texts


@st.composite
def weighted_stipples(draw, half_view):
    """Up to five stipples with weights in [0, 1] (0 and 1 among them) and random priorities."""
    stipples = []
    for idx in range(draw(st.integers(1, 5))):
        p = hg.vec3(draw(st.floats(-40.0, 40.0)), draw(st.floats(-20.0, 20.0)),
                    draw(st.floats(3.0, 15.0)) * draw(st.sampled_from([-1.0, 1.0])))
        center, width = draw(st.floats(-half_view, half_view)), draw(st.floats(0.05, 0.6))
        weight = draw(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0))
        stipples.append(hg.Stipple(p, weight, (center - 0.5 * width, center + 0.5 * width),
                                   draw(st.integers(0, 2)), idx))
    return stipples


CLIP_SETTINGS = settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])


class TestSegmentedClipEqualsThePerArcClip:
    @CLIP_SETTINGS
    @given(weighted_stipples(0.7), st.sampled_from([0.5, 1.0]), st.sampled_from([1e-6, 0.05, 0.5, 2.0]))
    def test_flat_directional_infinity(self, stipples, step_deg, bar_half):
        assert_clip_matches(FLAT, stipples, math.radians(step_deg), bar_half)

    @CLIP_SETTINGS
    @given(weighted_stipples(0.45), st.sampled_from([0.5, 1.0]), st.sampled_from([1e-6, 0.05, 0.5, 2.0]))
    def test_sphere_point_orbit(self, stipples, step_deg, bar_half):
        assert_clip_matches(SPHERE, stipples, math.radians(step_deg), bar_half)

    def test_a_bar_that_holds_only_the_theta_c_sample(self):
        # the toolpaths leave a bar of 1 nm within one step of theta_c; a 0-weight stipple keeps
        # theta_c alone in a wide bar
        stipples = [hg.Stipple(hg.vec3(3.0 * i, 1.0, 8.0), window=(-0.3, 0.2), stipple_id=i) for i in range(3)]
        texts = assert_clip_matches(FLAT, stipples, math.radians(0.5), 1e-6)
        assert texts == ["arc crosses the specularity bar within one step"] * 3
        zero = [replace(stipples[0], weight=0.0), stipples[1]]
        assert assert_clip_matches(FLAT, zero, math.radians(0.5), 2.0) == ["empty arc after bar clipping", None]

    def test_a_truncated_forward_half(self):
        # the sightline of the first stipple misses the host past theta = 0.3217, beyond its theta_c
        config = (hg.SphereHost(hg.vec3(0, 0, -40), 40.0), hg.PointLight(hg.vec3(0, 300, 600)),
                  hg.InfinityView(-1.4, 1.4))
        c = 0.23550321851880018
        stipples = [
            hg.Stipple(hg.vec3(-28.30081973127222, -7.514334470008722, 0.11873244080890899),
                       window=(c - 0.5, c + 0.5)),
            hg.Stipple(hg.vec3(3.0, -1.0, 4.0), window=(-0.1, 0.3), stipple_id=1),
        ]
        for bar_half in (0.05, 0.5, 50.0):
            assert_clip_matches(config, stipples, math.radians(1.0), bar_half)
        (path,) = _toolpaths(*config[:1], stipples[:1], *config[1:], math.radians(1.0), [0.0], theta_c=[c])
        assert path.warnings == ("sightline missed the host at theta=0.321710; truncated",)

    def test_split_toolpaths(self, monkeypatch):
        # the mirror image of the truncated stipple, with splits at back steps 0 and 2 and forward step 4
        config = (hg.SphereHost(hg.vec3(0, 0, -40), 40.0), hg.DirectionalLight(0.5), hg.InfinityView(-1.4, 1.4))
        c = -0.23550321851880018
        stipple = hg.Stipple(hg.vec3(28.30081973127222, -7.514334470008722, 0.11873244080890899),
                             window=(c - 0.5, c + 0.5))
        tangents = _Batch._tangents

        def degenerate(self, pos, e, *eyes):
            t1, n_raw = tangents(self, pos, e, *eyes)
            return np.where(np.isin(e, [self.cols + 1, self.cols + 5, 9])[:, None], 0.0, t1), n_raw

        monkeypatch.setattr(_Batch, "_tangents", degenerate)
        for bar_half in (0.05, 0.5, 50.0):
            assert_clip_matches(config, [stipple], math.radians(1.0), bar_half)
        (path,) = _toolpaths(*config[:1], [stipple], *config[1:], math.radians(1.0), [0.0], theta_c=[c])
        assert len(path.breaks) == 3


def test_a_nan_gap_raises_as_the_per_arc_clip():
    thetas, gaps = np.linspace(-0.2, 0.2, 5), np.array([0.0, 0.1, np.nan, 0.1, 0.0])
    with pytest.raises(DegenerateGeometryError, match=re.escape(_NO_UP)):
        _bar_clip(thetas, gaps, np.array([0, 5]), np.array([2]), np.array([1.0]), 0.5)
    path = hg.Toolpath(thetas, np.zeros((5, 3)), np.zeros((5, 3)), np.zeros((5, 3)), 0.0, 0.0, hg.PlaneHost())
    with pytest.raises(DegenerateGeometryError, match=re.escape(_NO_UP)):
        bar_clip(hg.Stipple(hg.vec3(0, 0, 5)), path, gaps, 0.0, 0.5)


def test_runs_end_at_their_own_segments():
    # three toolpaths in one table: the outside-bar rows of a neighbour never bound a run, and a
    # run reaches its segment's ends where no row is outside the bar
    thetas = np.array([0.0, 0.1, 0.2, 1.0, 1.1, 1.2, 1.3, 2.0, 2.1, 2.2])
    gaps = np.array([0.0, 0.0, 0.0, 9.0, 0.0, 0.0, 9.0, 0.0, 0.0, 9.0])
    offsets, centre = np.array([0, 3, 7, 10]), np.array([1, 5, 8])
    keep, counts, texts = _bar_clip(thetas, gaps, offsets, centre, np.ones(3), 0.5)
    assert keep.tolist() == [True] * 3 + [False, True, True, False] + [True, True, False]
    assert counts.tolist() == [3, 2, 2] and texts == [None] * 3
    keep, counts, texts = _bar_clip(thetas, gaps, offsets, centre, np.array([1.0, 0.0, 1.0]), 0.5)
    assert texts == [None, "empty arc after bar clipping", None] and counts.tolist() == [3, 0, 2]
    assert not keep[3:7].any()
