"""The batch striping kernel: rows equal one-stipple integrations bit for bit,
anchored toolpaths join their backward and forward halves in theta order and
cross their specularity curve where the former C0 polish put it, the
stripe/simulate bundles keep their pinned bytes and the toolpath readers
their pinned values."""

import functools
import hashlib
import importlib.util
import math
import random
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import hologlint as hg
from hologlint import cli, scene as scene_io
from hologlint.cli import cli_dispatch
from hologlint.errors import (
    DegenerateGeometryError,
    DomainError,
    HologlintError,
    SightlineMissError,
)
from hologlint.geom import REFLECTION, DirectionalLight, norm_rows, sightline_host_intersections
from hologlint.striping import (
    _NO_UP,
    _Batch,
    _require_azimuth_view,
    _toolpaths,
    _vertical_gaps,
)

FLAT = (hg.PlaneHost(), hg.DirectionalLight(math.radians(30)), hg.InfinityView(-math.pi / 4, math.pi / 4))
SPHERE = (
    hg.SphereHost(hg.vec3(0, 0, -200), 200.0),
    hg.PointLight(hg.vec3(0, 300, 600)),
    hg.OrbitView(hg.vec3(0, 0, 0), 500.0, 0.0, -math.pi / 6, math.pi / 6),
)


def _anchored_toolpath(host, stipple, light, view, theta_c, step):
    """One stipple's toolpath anchored on its specularity curve at theta_c: gap 0 there."""
    (path,) = _toolpaths(host, [stipple], light, view, step, [0.0], theta_c=[theta_c])
    if isinstance(path, Exception):
        raise path
    return path


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
    if anchored:  # no C0 is given: the rows start on the specularity curve at theta_c
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


class _OldBatch(_Batch):
    """The batch with the integration loop of the former C0 polish, which re-integrated every row from its
    window start in each round."""

    def __init__(self, host, light, media, view, ps, sigma, lo, hi, step):
        super().__init__(host, light, media, view, ps, lo, hi, step)
        self.ps, self.sigma = ps, sigma

    def integrate(self, rows: np.ndarray, c0: np.ndarray, c1: float) -> None:
        """Run the RK4 of ``rows`` from C0 = ``c0`` (one per row), replacing their samples."""
        gap0 = c0
        if isinstance(self.light, DirectionalLight):
            dist = norm_rows(self.q0[rows] - self.ps[rows])
            gap0 = c0 + self.sigma[rows] * dist / math.cos(self.light.alpha)
        hp, nh = self.host.nearest_many(self.q0[rows] + gap0[:, None] * self.up0[rows])
        state = np.full((len(self.n), 2), np.nan)
        state[rows] = (hp + c1 * nh)[:, 1:]
        self.yz[rows], self.kept[rows] = np.nan, False
        self.yz[rows, 0], self.kept[rows, 0] = state[rows], True
        for row in rows:
            self.breaks[row], self.warnings[row] = [], []
        live = np.isin(np.arange(len(self.n)), rows)

        def drop(gone: np.ndarray, k: int, split: bool, t1=None):
            """Take the ``gone`` rows out of step k: a split or a truncation."""
            nonlocal r, y0, hk, ks
            if not gone.any():
                return t1
            live[r[gone]] = split
            for i, theta in zip(r[gone], self.grid[r[gone], k]):
                if split:
                    self.breaks[i].append(int(self.kept[i].sum()))
                self.warnings[i].append(
                    f"degenerate conforming tangent near theta={theta:.6f}; split" if split
                    else f"sightline missed the host at theta={theta + self.h[i]:.6f}; truncated"
                )
            r, y0, hk, ks = r[~gone], y0[~gone], hk[~gone], [v[~gone] for v in ks]
            return None if t1 is None else t1[~gone]

        for k in range(int(self.n[rows].max(initial=0))):
            r = np.flatnonzero(live & (k < self.n))
            if not r.size:
                break
            y0, hk, ks = state[r], self.h[r, None], []
            for j, f in ((2 * k, 0.0), (2 * k + 1, 0.5), (2 * k + 1, 0.5), (2 * k + 2, 1.0)):
                drop(np.isnan(self.x[r, j]), k, False)
                st = y0 + f * hk * ks[-1] if ks else y0
                t1, _ = self._tangents(np.column_stack([self.x[r, j], st]), r * self.cols + j)
                nt = norm_rows(t1)
                t1 = drop((nt < 1e-12) | (np.abs(t1[:, 0]) < 1e-12 * nt), k, True, t1)
                t1 = drop(np.isnan(self.xdot[r, j]), k, False, t1)
                ks.append(t1[:, 1:] / t1[:, :1] * self.xdot[r, j][:, None])
            k1, k2, k3, k4 = ks
            state[r] = y0 + hk / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
            self.yz[r, k + 1], self.kept[r, k + 1] = state[r], True


def _old_toolpaths(host, stipples, light, view, step, c0, c1=0.0, theta_c=None, media=REFLECTION) -> list:
    """The former batch kernel: every polish round re-integrates each unconverged row to its end."""
    _require_azimuth_view(view)
    ps = np.array([s.p for s in stipples], dtype=float).reshape(-1, 3)
    lo = np.array([max(view.theta_min, s.window[0]) for s in stipples])
    hi = np.array([min(view.theta_max, s.window[1]) for s in stipples])
    sd = np.array([host.signed_distance(p) for p in ps])
    sigma, c0 = np.where(sd > 0, 1.0, -1.0), np.array(c0, dtype=float)
    out: list = [None] * len(stipples)
    with np.errstate(divide="ignore", invalid="ignore"):
        if theta_c is not None and isinstance(light, DirectionalLight):
            qc, why = sightline_host_intersections(view.eyes_at(theta_c), ps, host)
            c0 = -sigma * norm_rows(qc - ps) / math.cos(light.alpha)
            out = [SightlineMissError(w) if w else None for w in why]
        for i in range(len(stipples)):
            if out[i] is None and not lo[i] < hi[i]:
                out[i] = DomainError("stipple window does not intersect the view range")
            elif out[i] is None and step <= 0:
                out[i] = DomainError("step must be positive")
            elif out[i] is None and abs(sd[i]) < 1e-12:
                out[i] = DegenerateGeometryError("stipple lies on the host surface")
        rows = np.flatnonzero([e is None for e in out])
        if not rows.size:
            return out
        batch = _OldBatch(host, light, media, view, ps[rows], sigma[rows], lo[rows], hi[rows], step)
        todo, c0 = np.flatnonzero([e is None for e in batch.errors]), c0[rows]
        batch.integrate(todo, c0[todo], c1)
        for _ in range(3 if theta_c is not None else 0):
            # the gap of each row's sample nearest theta_c
            tc = np.asarray(theta_c)[rows[todo], None]
            k = np.argmin(np.where(batch.kept[todo], np.abs(batch.grid[todo] - tc), np.inf), axis=1)
            pos = np.column_stack([batch.x[todo, 2 * k], batch.yz[todo, k]])
            gap = _vertical_gaps(host, view, ps[rows[todo]], batch.grid[todo, k], pos)
            for b in todo[np.isnan(gap)]:
                batch.errors[b] = DegenerateGeometryError(_NO_UP)
            todo, gap = todo[np.abs(gap) >= 1e-9], gap[np.abs(gap) >= 1e-9]
            c0[todo] -= gap
            batch.integrate(todo, c0[todo], c1)
        for b, i in enumerate(rows):
            out[i] = batch.errors[b] or batch.toolpath(b, float(c0[b]), c1)
    return out


@functools.cache
def _workloads():
    """The benchmark's scene generators, ``bench/workloads.py``."""
    path = Path(__file__).parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)  # its dataclasses look it up
    spec.loader.exec_module(module)
    return module


def _workload_scene(name: str, seed: int) -> str:
    """The scene text that ``bench/run.py --workload stripe-<name> --seed <seed>`` stripes."""
    return getattr(_workloads(), f"stripe_{name}_scenes")(random.Random(seed), False)[0].text


@st.composite
def crossings(draw, half_view):
    """Stipples with a theta_c each, anywhere inside the middle 90 % of their window."""
    stipples, _ = draw(stipple_sets(half_view))
    theta_c = [
        0.5 * (s.window[0] + s.window[1]) + draw(st.floats(-0.45, 0.45)) * (s.window[1] - s.window[0])
        for s in stipples
    ]
    return stipples, theta_c


def _assert_anchored_off_centre(config, stipples, theta_c, step):
    """Rows anchored at ``theta_c`` equal their one-row calls, hold theta_c once with gap 0 there,
    ascend in theta and span their window clipped to the view."""
    host, light, view = config
    batch = _toolpaths(host, stipples, light, view, step, [0.0] * len(stipples), theta_c=theta_c)
    for s, tc, row in zip(stipples, theta_c, batch):
        assert _outcome(row) == _outcome(lambda: _anchored_toolpath(host, s, light, view, tc, step))
        lo, hi = max(view.theta_min, s.window[0]), min(view.theta_max, s.window[1])
        if isinstance(row, HologlintError) or row.warnings or not lo < tc < hi:
            continue
        (k,) = np.flatnonzero(row.thetas == tc)
        assert (np.diff(row.thetas) > 0).all() and row.thetas[[0, -1]] == pytest.approx([lo, hi], abs=1e-12)
        assert abs(_vertical_gaps(host, view, s.p, row.thetas[k : k + 1], row.positions[k : k + 1])[0]) < 1e-9


class TestAnchoredOffCentre:
    """Anchoring does not rely on theta_c being the window centre: any theta_c inside the window
    starts both halves there."""

    @BATCH_SETTINGS
    @given(crossings(0.7), st.sampled_from([0.5, 1.0]))
    def test_flat_directional_infinity(self, drawn, step_deg):
        _assert_anchored_off_centre(FLAT, *drawn, math.radians(step_deg))

    @BATCH_SETTINGS
    @given(crossings(0.45), st.sampled_from([0.5, 1.0]))
    def test_sphere_point_orbit(self, drawn, step_deg):
        _assert_anchored_off_centre(SPHERE, *drawn, math.radians(step_deg))


class TestAnchoredHalves:
    """Each anchored toolpath starts at theta_c and joins a backward half, on negative steps,
    to its forward half: theta ascends, and breaks and warnings come in theta order."""

    def test_a_truncation_of_the_forward_half_keeps_the_backward_half(self):
        # the sightline of the first stipple misses the host past theta = 0.3217, beyond its theta_c
        host = hg.SphereHost(hg.vec3(0, 0, -40), 40.0)
        config = (host, hg.PointLight(hg.vec3(0, 300, 600)), hg.InfinityView(-1.4, 1.4))
        c = 0.23550321851880018
        stipples = [
            hg.Stipple(
                hg.vec3(-28.30081973127222, -7.514334470008722, 0.11873244080890899),
                window=(c - 0.5, c + 0.5),
            ),
            hg.Stipple(hg.vec3(3.0, -1.0, 4.0), window=(-0.1, 0.3)),
        ]
        truncated, whole = _assert_rows_match(config, stipples, [0.0, 0.0], math.radians(1.0), anchored=True)
        assert truncated.warnings == ("sightline missed the host at theta=0.321710; truncated",)
        assert truncated.thetas[0] == pytest.approx(c - 0.5, abs=1e-12) and c in truncated.thetas
        assert truncated.thetas[-1] < 0.32171 < c + 0.5
        assert not whole.warnings and whole.thetas[[0, -1]] == pytest.approx([-0.1, 0.3], abs=1e-12)

    def test_splits_and_a_truncation_of_the_backward_half_merge_in_theta_order(self, monkeypatch):
        # the mirror image of the truncated stipple above: its sightline misses the host below
        # theta = -0.3217, past the window start of its backward half
        host = hg.SphereHost(hg.vec3(0, 0, -40), 40.0)
        config = (host, hg.DirectionalLight(0.5), hg.InfinityView(-1.4, 1.4))
        c, step = -0.23550321851880018, math.radians(1.0)
        stipple = hg.Stipple(hg.vec3(28.30081973127222, -7.514334470008722, 0.11873244080890899),
                             window=(c - 0.5, c + 0.5))
        lo, hi = stipple.window
        tc, n = 0.5 * (lo + hi), math.ceil(0.5 / step - 1e-12)
        tangents = _Batch._tangents

        def degenerate(self, pos, e, *eyes):  # midpoint stages: back steps 0 and 2, forward step 4
            t1, n_raw = tangents(self, pos, e, *eyes)
            return np.where(np.isin(e, [self.cols + 1, self.cols + 5, 9])[:, None], 0.0, t1), n_raw

        monkeypatch.setattr(_Batch, "_tangents", degenerate)
        (path,) = _assert_rows_match(config, [stipple], [0.0], step, anchored=True)
        assert (np.diff(path.thetas) > 0).all() and tc in path.thetas and path.thetas[-1] == pytest.approx(hi)
        kinds = [w.rsplit("; ", 1)[1] for w in path.warnings]
        assert kinds == ["truncated", "split", "split", "split"]
        assert path.warnings[0] == "sightline missed the host at theta=-0.321710; truncated"
        at = [float(w.split("theta=")[1].split(";")[0]) for w in path.warnings]
        assert at == sorted(at) and at[2] == round(tc, 6)
        # a break is the index of the first sample after a gap of more than one step, in theta order
        gaps = np.flatnonzero(np.diff(path.thetas) > 1.5 * (hi - tc) / n) + 1
        assert path.breaks == tuple(gaps) and len(gaps) == 3
        assert path.thetas[gaps[1]] == tc  # back step 0 split: the gap ends at theta_c

    def test_one_batch_steps_both_halves_in_lockstep(self, monkeypatch):
        # every stage serves the rows of both halves: the longest half's steps, four stages each,
        # and one tangent call per finished toolpath
        stipples = scene_io.build_stipples(scene_io.parse_scene(STRIPE_SPHERE_SEED_1))
        host, light, view = SPHERE
        windows = [(max(view.theta_min, s.window[0]), min(view.theta_max, s.window[1])) for s in stipples]
        theta_c = [0.5 * (lo + hi) for lo, hi in windows]
        tangents, batches = _Batch._tangents, []

        def counting(self, pos, e, *eyes):
            batches.append(self)
            return tangents(self, pos, e, *eyes)

        monkeypatch.setattr(_Batch, "_tangents", counting)
        paths = _toolpaths(host, stipples, light, view, math.radians(0.1), [0.0] * 5, theta_c=theta_c)
        batch = batches[0]
        assert len(batch.n) == 2 * len(stipples) and (batch.h[:5] > 0).all() and (batch.h[5:] < 0).all()
        assert len(batches) == 4 * batch.n.max() + len(stipples)
        for path, (lo, hi) in zip(paths, windows):  # each toolpath spans its window
            assert not path.warnings and path.thetas[[0, -1]] == pytest.approx([lo, hi], abs=1e-12)

    def test_anchored_arcs_cross_within_the_polish_offset(self):
        # on stripe-flat seeds 1-10, every row where the former polish converged (its gap under
        # 1e-9 at its kept sample nearest theta_c) took a constant within 6.3 um of the closed
        # form's, which the anchored arc takes: the polish zeroed the gap a part-step off theta_c
        specs = [scene_io.parse_scene(_workload_scene("flat", seed)) for seed in range(1, 11)]
        host, light, view = (f(specs[0]) for f in (scene_io.build_host, scene_io.build_light, scene_io.build_view))
        stipples = [s for spec in specs for s in scene_io.build_stipples(spec)]
        step = scene_io.integration_step(specs[0])
        theta_c = [0.5 * (max(view.theta_min, s.window[0]) + min(view.theta_max, s.window[1])) for s in stipples]
        args = (host, stipples, light, view, step, [0.0] * len(stipples))
        new, old = _toolpaths(*args, theta_c=theta_c), _old_toolpaths(*args, theta_c=theta_c)
        offsets = []
        for s, tc, a, b in zip(stipples, theta_c, new, old):
            k = np.argmin(np.abs(b.thetas - tc))
            if abs(_vertical_gaps(host, view, s.p, b.thetas[k : k + 1], b.positions[k : k + 1])[0]) < 1e-9:
                offsets.append(abs(a.c0 - b.c0))
            assert (a.thetas == tc).sum() == 1
        assert len(offsets) == len(stipples) == 200
        assert 1e-4 < max(offsets) <= 6.3e-3


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

# sha256 of each artifact, taken with the toolpaths anchored at theta_c (the frames did not
# move from the C0 polish they replaced, the rest did)
PINNED = {
    "stripe-flat": (
        STRIPE_FLAT_SEED_1,
        {
            "striping.nc": "0476c341986e986d11c61b4d32c0f0b1f91d1e3b995bbd9568101a7e0093ed88",
            "striping.csv": "7fdce875402255d24e42365c154e67eda667b18b4febea05dca1819ab0d89b09",
            "triangulation.csv": "231aaf2e5deb91f14da623668ac6b1bd03ff617d6948c027dbaedb141b826169",
            "frames": "152cf62d131bc69bba05aca20e9ad22cc0d1a587b446e69d8efe3a6217959b43",
        },
    ),
    "stripe-sphere": (
        STRIPE_SPHERE_SEED_1,
        {
            "striping.nc": "1e5a7f722e72623cf2bee1b509c668b6023a242ed253f9bbd1be7e900a3797fd",
            "striping.csv": "10d88a07447eba8260a74ab364c01aa017064cb4a1cd6839d947f9babf04f509",
            "triangulation.csv": "d7ad51e95236c7b7778eeb1afd1f51b4f1f8427247f0333ee5abc09280395800",
            "frames": "3eec43122f4058c0344cd6fcf611e59b950190a3ecfe7fa64c52eb7428e55f00",
        },
    ),
}


# the 40-stipple sphere-host scene that CI stripes: bench/workloads._stipple_lines(Random(1), 40,
# (-113, 113), (-57, 57), 14, 30, (10, 30)) under stripe-sphere's header.  Its rows end at
# different steps, and 4 of them are rejected; sha256 taken with the toolpaths anchored at theta_c
SPHERE_40_SEED_1 = STRIPE_SPHERE_SEED_1.split("[stipples]")[0] + """[stipples]
-2.780 4.840 -14.281 1.0 7.030 22.757 0
-82.773 35.922 -3.471 1.0 -1.626 20.087 0
-30.215 13.981 5.525 1.0 0.585 22.906 0
11.654 -8.953 -6.451 1.0 12.524 29.340 0
-42.438 -49.737 -13.051 1.0 -1.673 28.052 0
-75.467 27.572 14.560 1.0 -11.561 15.616 0
-20.844 51.748 3.136 1.0 -29.312 -19.054 0
55.080 0.125 -12.449 1.0 -13.688 13.076 0
60.433 -33.885 12.735 1.0 -21.106 -2.813 0
-67.191 -50.160 -5.242 1.0 -25.543 -14.729 0
-55.885 50.599 6.714 1.0 -7.382 20.833 0
84.506 29.699 -10.057 1.0 1.147 15.915 0
-7.369 51.407 8.548 1.0 -27.376 -10.058 0
108.076 -2.910 -13.682 1.0 -11.691 1.043 0
2.528 25.124 13.924 1.0 -26.093 -1.899 0
28.040 -7.344 13.333 1.0 -4.335 16.857 0
36.014 -27.665 -5.865 1.0 -5.243 8.445 0
-55.841 -27.321 -14.821 1.0 -18.269 0.488 0
-102.312 -0.107 -11.263 1.0 -7.015 13.759 0
-92.433 12.185 6.182 1.0 -20.857 4.402 0
-104.090 -49.236 -4.032 1.0 -23.493 1.320 0
-45.904 11.190 4.908 1.0 -15.116 4.198 0
37.369 47.038 -7.073 1.0 -12.454 7.289 0
-88.686 -25.530 -9.450 1.0 -18.389 -6.568 0
73.267 -2.905 12.123 1.0 4.319 19.496 0
8.491 -51.214 -8.853 1.0 -5.368 23.433 0
72.635 51.404 11.531 1.0 -14.894 -2.690 0
-36.066 52.500 -7.651 1.0 3.046 25.788 0
87.834 7.219 -11.877 1.0 -28.598 -4.822 0
61.110 51.821 4.371 1.0 9.869 26.135 0
105.876 -25.944 10.323 1.0 -16.151 10.029 0
89.094 -52.267 9.768 1.0 5.339 28.609 0
75.783 -25.975 7.370 1.0 -22.156 -10.886 0
101.767 51.740 9.131 1.0 -9.703 10.500 0
-20.652 -30.758 3.738 1.0 -8.255 5.019 0
-109.640 35.849 -4.678 1.0 -9.460 18.344 0
-58.973 10.588 7.971 1.0 -1.977 12.254 0
-4.455 -34.262 -8.280 1.0 -18.344 7.401 0
-72.149 -7.052 10.917 1.0 -3.496 25.685 0
33.920 1.219 -10.678 1.0 -24.216 -6.479 0
"""
SPHERE_40_PINNED = {
    "striping.nc": "0a4d0fe36e268519dc9f2f5a37a9231d0c52619eedf7f58bb3a0855a2be5996e",
    "striping.csv": "ce410d7ffbaf53e63ff231acf13e7c1a4b4e33112ca3cc2b1107c80bf4687112",
}


def test_40_stipple_sphere_stripe_keeps_its_bytes(tmp_path, capsys):
    scene = tmp_path / "scene.txt"
    scene.write_text(SPHERE_40_SEED_1, encoding="utf-8")
    assert cli_dispatch(["stripe", str(scene), "-o", str(tmp_path / "stripe")]) == 0
    assert "accepted 36 arcs, rejected 4" in capsys.readouterr().out
    got = {f: hashlib.sha256((tmp_path / "stripe" / f).read_bytes()).hexdigest() for f in SPHERE_40_PINNED}
    assert got == SPHERE_40_PINNED


def test_a_stipple_whose_bar_holds_only_its_theta_c_sample_is_rejected_as_a_steep_crossing():
    # the 40-stipple sphere scene's 4 rejections: each toolpath crosses the 0.5 mm bar within one
    # step either side of theta_c, so no run of two samples lies inside it
    spec = scene_io.parse_scene(SPHERE_40_SEED_1)
    media, light, host, view, fab, stipples, striping = cli._make_striping(spec)
    rejected = {s.stipple_id: why for s, why in striping.rejected}
    assert rejected == dict.fromkeys([1, 5, 11, 35], "arc crosses the specularity bar within one step")
    for s in stipples:
        lo, hi = max(view.theta_min, s.window[0]), min(view.theta_max, s.window[1])
        path = _anchored_toolpath(host, s, light, view, 0.5 * (lo + hi), scene_io.integration_step(spec))
        k = np.flatnonzero(path.thetas == 0.5 * (lo + hi))[0]
        inside = np.abs(_vertical_gaps(host, view, s.p, path.thetas[k - 1 : k + 2], path.positions[k - 1 : k + 2]))
        assert (inside[[0, 2]] > fab.delta).all() == (s.stipple_id in rejected) and inside[1] < 1e-12


def test_the_weight_clip_keeps_its_own_rejection_text():
    # a zero weight clips the arc to its theta_c sample alone, however wide its bar
    host, light, view = FLAT
    stipple = hg.Stipple(hg.vec3(3.0, 2.0, 8.0), weight=0.0, window=(-0.2, 0.3))
    striping = hg.make_striping([stipple], light, host, view, hg.FabricationParams())
    assert [why for _, why in striping.rejected] == ["empty arc after bar clipping"]


# sha256 of that scene's `verify` stdout, taken with the toolpaths anchored at theta_c: no violation
SPHERE_40_VERIFY_SHA256 = "a3e38fd8e4845e17a6e4a707111a0a79c607e10b5578784c6487779238640a75"


def test_40_stipple_sphere_verify_keeps_its_output(tmp_path, capsys):
    scene = tmp_path / "scene.txt"
    scene.write_text(SPHERE_40_SEED_1, encoding="utf-8")
    assert cli_dispatch(["verify", str(scene)]) == 0
    out = capsys.readouterr().out
    assert out.endswith("verify: all residual suites passed (equations (1), (2), (3))\n")
    assert hashlib.sha256(out.encode()).hexdigest() == SPHERE_40_VERIFY_SHA256


# the 320-stipple flat scene that CI stripes: bench/workloads._stipple_lines(Random(1), 320,
# (-240, 240), (-160, 160), 20, 45, (10, 40)) under stripe-flat's header.  Its 320 rows are
# state-free (plane, directional light, infinity view) and end at different steps, and one is
# rejected; sha256 taken with the toolpaths anchored at theta_c
FLAT_320_SCENE = Path(__file__).parent / "scenes" / "flat_320_seed_1.txt"
FLAT_320_PINNED = {
    "striping.nc": "e1155ab24bd22d782866dc3427fda1ff6669402ecdd2201d41e13ad3d5ecaefc",
    "striping.csv": "46b75c00c89555328f4c782957371374cba881e7824424d173d6a53f87f0941e",
}


def test_320_stipple_flat_stripe_keeps_its_bytes(tmp_path, capsys):
    assert cli_dispatch(["stripe", str(FLAT_320_SCENE), "-o", str(tmp_path / "stripe")]) == 0
    assert "accepted 319 arcs, rejected 1" in capsys.readouterr().out
    got = {f: hashlib.sha256((tmp_path / "stripe" / f).read_bytes()).hexdigest() for f in FLAT_320_PINNED}
    assert got == FLAT_320_PINNED


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
    # rows of different window widths share the batch; each must still match its own run
    spec = scene_io.parse_scene(PINNED[name][0])
    config = (scene_io.build_host(spec), scene_io.build_light(spec), scene_io.build_view(spec))
    stipples = scene_io.build_stipples(spec)
    step = scene_io.integration_step(spec)
    _assert_rows_match(config, stipples, [0.0] * len(stipples), step, anchored=True)


# float.hex of what the toolpath readers return on the PINNED scenes, taken with the
# toolpaths anchored at theta_c: bit_profile_for's angle interval,
# its point count and the sha256 of its points' float.hex text; then the verify_suites
# maxima of normality, colinearity, conformance and member normality
READERS = {
    "stripe-flat": (
        ("0x1.afd7e30fe1315p-1", "0x1.0c152327804a0p+0"),
        26,
        "63ba7d8e0b3db9ac5e370c0a5def0933192a33442690a2b4760d763d2c7cb55a",
        ("0x1.dbf4df41b58f9p-53", "0x1.2a9112b7ed9e8p-48", "0x0.0p+0", "0x1.7c0ae962c1452p-52"),
    ),
    "stripe-sphere": (
        ("0x1.246a97b928703p+0", "0x1.5070825a5575dp+0"),
        22,
        "521d5fb3035f6f6902aa6f513a036eb86e9379a108becf57b7a35e65b29b23ee",
        ("0x1.4d64f1e2f5439p-53", "0x1.ee8d0e0f72111p-45", "0x1.078a3d02076f0p-39", "0x1.92acc83397e22p-52"),
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
