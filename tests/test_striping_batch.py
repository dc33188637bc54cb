"""The batch striping kernel: rows equal one-stipple integrations bit for bit,
the C0 polish that stops at theta_c equals the full re-integration it replaced,
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
    """One stipple's toolpath with C0 polished so the specularity crossing sits at theta_c."""
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


class _OldBatch(_Batch):
    """The batch with the integration loop the C0 polish used before it stopped at theta_c."""

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


def _assert_polish_matches_old(config, stipples, theta_c, step):
    host, light, view = config
    args = (host, stipples, light, view, step, [0.0] * len(stipples))
    new, old = _toolpaths(*args, theta_c=theta_c), _old_toolpaths(*args, theta_c=theta_c)
    assert [_outcome(row) for row in new] == [_outcome(row) for row in old]
    return new


def _grid(stipple, view, step, k):
    """Theta of grid column k of a stipple's toolpath, and the column spacing."""
    lo, hi = max(view.theta_min, stipple.window[0]), min(view.theta_max, stipple.window[1])
    h = (hi - lo) / max(1, math.ceil((hi - lo) / step - 1e-12))
    return lo + k * h, h


@st.composite
def crossings(draw, half_view):
    """Stipples with a theta_c each, inside their window or up to 40 % of it outside."""
    stipples, _ = draw(stipple_sets(half_view))
    theta_c = [
        0.5 * (s.window[0] + s.window[1]) + draw(st.floats(-0.9, 0.9)) * (s.window[1] - s.window[0])
        for s in stipples
    ]
    return stipples, theta_c


class TestPolishStopsAtThetaC:
    """The polish steps each row only until it holds a kept sample at or past theta_c,
    restarts unconverged rows and resumes converged ones; the toolpaths equal the
    former polish, which re-integrated every row to its window end in every round."""

    @BATCH_SETTINGS
    @given(crossings(0.7), st.sampled_from([0.5, 1.0]))
    def test_flat_directional_infinity(self, drawn, step_deg):
        _assert_polish_matches_old(FLAT, *drawn, math.radians(step_deg))

    @BATCH_SETTINGS
    @given(crossings(0.45), st.sampled_from([0.5, 1.0]))
    def test_sphere_point_orbit(self, drawn, step_deg):
        _assert_polish_matches_old(SPHERE, *drawn, math.radians(step_deg))

    def test_split_past_theta_c_makes_a_later_sample_nearest(self, monkeypatch):
        # a degenerate tangent at grid column m splits steps m-1 and m: samples m and
        # m+1 are never kept, so with theta_c just below column m+1 the nearest kept
        # sample is m+2, not m-1, and the row must step past the first column >= theta_c
        step, m = math.radians(1.0), 10
        stipple = hg.Stipple(hg.vec3(5.0, -3.0, 8.0), window=(-0.2, 0.2))
        theta, h = _grid(stipple, SPHERE[2], step, m + 1)
        tangents = _Batch._tangents

        def degenerate_at_m(self, pos, e):
            t1, n_raw = tangents(self, pos, e)
            return np.where((e % self.cols == 2 * m)[:, None], 0.0, t1), n_raw

        monkeypatch.setattr(_Batch, "_tangents", degenerate_at_m)
        (path,) = _assert_polish_matches_old(SPHERE, [stipple], [theta - 0.1 * h], step)
        assert path.breaks == (m, m)
        kept = np.round((path.thetas - path.thetas[0]) / h).astype(int)
        assert m not in kept and m + 1 not in kept and m + 2 in kept

    def test_truncation_before_theta_c(self):
        # the sightline of this stipple misses the host past theta = 0.3217
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
        truncated, whole = _assert_polish_matches_old(config, stipples, [0.5, 0.1], math.radians(1.0))
        assert truncated.warnings[-1] == "sightline missed the host at theta=0.321710; truncated"
        assert truncated.thetas[-1] < 0.32171 < 0.5
        assert not whole.warnings

    def test_resumed_and_restarted_rows_share_an_advance(self, monkeypatch):
        # with theta_c under half a step past the window start, the nearest kept sample
        # is the anchor itself: that row converges in round 0 after one step and resumes
        # from step 1 while the other row restarts from step 0 in round 1
        step = math.radians(1.0)
        stipples = [
            hg.Stipple(hg.vec3(5.0, -3.0, 8.0), window=(-0.2, 0.2)),
            hg.Stipple(hg.vec3(-12.0, 4.0, -6.0), window=(-0.1, 0.3)),
        ]
        lo, h = _grid(stipples[0], SPHERE[2], step, 0)
        advance, starts = _Batch.advance, []

        def spy(self, rows, stop):
            starts.append({int(r): int(self.at[r]) for r in rows})
            advance(self, rows, stop)

        monkeypatch.setattr(_Batch, "advance", spy)
        paths = _assert_polish_matches_old(SPHERE, stipples, [lo + 0.4 * h, 0.1], step)
        assert starts[:2] == [{0: 0, 1: 0}, {0: 1, 1: 0}]
        assert all(len(p.thetas) > 2 for p in paths)

    def test_polish_rounds_step_to_theta_c_not_to_the_window_end(self, monkeypatch):
        spec = scene_io.parse_scene(STRIPE_SPHERE_SEED_1)
        stipples = scene_io.build_stipples(spec)
        host, light, view = SPHERE
        theta_c = np.array([0.5 * (s.window[0] + s.window[1]) for s in stipples])
        tangents, batches = _Batch._tangents, []

        def counting(self, pos, e):
            batches.append(self)
            return tangents(self, pos, e)

        monkeypatch.setattr(_Batch, "_tangents", counting)
        _toolpaths(host, stipples, light, view, scene_io.integration_step(spec), [0.0] * 5, theta_c=theta_c)
        batch = batches[0]
        kc = np.argmax(batch.grid >= theta_c[:, None], axis=1)  # first grid column >= theta_c
        # four tangent calls per RK4 step, plus one per finished toolpath
        polish, last = 3 * (kc.max() + 1), batch.n.max()
        assert len(batches) <= 4 * (polish + last) + len(stipples)
        assert len(batches) < 4 * 4 * batch.n.max()


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
