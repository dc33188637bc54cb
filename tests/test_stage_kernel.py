"""The RK4 stage kernel of ``striping._Batch``: the row helpers and ``advance``
equal the former ones bit for bit, the NaN horizon truncates a row in the
same step, with the same text, as the former per-stage NaN tests did, and only
state-free batches read their stage slopes from a table, built in blocks."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import hologlint as hg
from hologlint import striping
from hologlint.geom import EyeAtInfinity, cross_rows, glint_axes, norm_rows
from hologlint.striping import _Batch, _toolpaths


# ---- the former row helpers, verbatim ----


def _old_norm_rows(vs: np.ndarray) -> np.ndarray:
    """Row-wise ``norm`` of an (N, 3) array, with the same arithmetic per row."""
    return np.sqrt(vs[:, 0] * vs[:, 0] + vs[:, 1] * vs[:, 1] + vs[:, 2] * vs[:, 2])


def _old_cross_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise cross product of (N, 3) arrays, with ``np.cross``'s arithmetic."""
    (a0, a1, a2), (b0, b1, b2) = a.T, b.T
    return np.column_stack([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0])


# ---- the former stage loop, verbatim but for the eyes it rebuilds ----


class _FormerBatch(_Batch):
    """The batch with the RK4 stage loop that gathered each stage through 2-D fancy
    indexing, rebuilt the stage eyes and tested every stage for NaN."""

    def __init__(self, *args):
        super().__init__(*args)
        self.eyes = EyeAtInfinity(self.eye_rows) if self.infinite else self.eye_rows

    def _tangents(self, pos: np.ndarray, e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """t1 = n_raw x n_host and n_raw at ``pos``, seen from the stage eyes ``e`` (flat indices)."""
        n_host = self.host.nearest_many(pos)[1]
        eyes = self.eyes
        eyes = EyeAtInfinity(eyes.direction[e]) if isinstance(eyes, EyeAtInfinity) else eyes[e]
        n_raw = glint_axes(pos, self.light, eyes, self.media)
        return _old_cross_rows(n_raw, n_host), n_raw

    def advance(self, rows: np.ndarray, stop: np.ndarray) -> None:
        """Run the RK4 of ``rows``, each from its own step pointer, in one lockstep loop.

        A row stops at its window end, when truncated, or once it holds a kept
        sample at theta >= ``stop[row]`` (no later sample is nearer that theta).
        """
        every = np.arange(len(self.n))
        run = np.isin(every, rows)

        def drop(gone: np.ndarray, split: bool, t1=None):
            """Take the ``gone`` rows out of this step: a split or a truncation."""
            nonlocal r, k, j, y0, hk, ks
            if not gone.any():
                return t1
            self.live[r[gone]] = split
            for i, theta in zip(r[gone], self.grid[r[gone], k[gone]]):
                if split:
                    self.breaks[i].append(int(self.kept[i].sum()))
                self.warnings[i].append(
                    f"degenerate conforming tangent near theta={theta:.6f}; split" if split
                    else f"sightline missed the host at theta={theta + self.h[i]:.6f}; truncated"
                )
            r, k, j, y0, hk, *ks = (v[~gone] for v in (r, k, j, y0, hk, *ks))
            return None if t1 is None else t1[~gone]

        while True:
            held = self.kept[every, self.at] & (self.grid[every, self.at] >= stop)
            r = np.flatnonzero(run & self.live & (self.at < self.n) & ~held)
            if not r.size:
                break
            k = self.at[r]
            self.at[r] += 1
            y0, hk, ks = self.state[r], self.h[r, None], []
            for off, f in ((0, 0.0), (1, 0.5), (1, 0.5), (2, 1.0)):
                j = 2 * k + off  # each row's own stage column
                drop(np.isnan(self.x[r, j]), False)
                st = y0 + f * hk * ks[-1] if ks else y0
                t1, _ = self._tangents(np.column_stack([self.x[r, j], st]), r * self.cols + j)
                nt = _old_norm_rows(t1)
                t1 = drop((nt < 1e-12) | (np.abs(t1[:, 0]) < 1e-12 * nt), True, t1)
                t1 = drop(np.isnan(self.xdot[r, j]), False, t1)
                ks.append(t1[:, 1:] / t1[:, :1] * self.xdot[r, j][:, None])
            k1, k2, k3, k4 = ks
            self.state[r] = y0 + hk / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
            self.yz[r, k + 1], self.kept[r, k + 1] = self.state[r], True


def _former(fn):
    """Run ``fn`` with ``_toolpaths`` building the former batch."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(striping, "_Batch", _FormerBatch)
        return fn()


def _outcome(path):
    """A toolpath as exact bytes, or the error that rejected it."""
    if isinstance(path, Exception):
        return type(path).__name__, str(path)
    return (
        *(getattr(path, f).tobytes() for f in ("thetas", "positions", "t1", "axes")),
        path.breaks,
        path.warnings,
        path.c0,
    )


# ---- the row helpers ----

SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 2.5e-308, -1e-310, 1e-300, -1e-300, 1e-160, 1e150,
           1e300, -1e300, 1.7976931348623157e308, math.inf, -math.inf, math.nan, 1.0, -1.0]


def _magnitudes():
    """Signed floats from 1e-300 to 1e300, spread over the exponents."""
    return st.tuples(st.floats(-300.0, 300.0), st.floats(1.0, 10.0), st.sampled_from([-1.0, 1.0])).map(
        lambda t: t[2] * t[1] * 10.0 ** t[0]
    )


ELEMENTS = st.one_of(st.sampled_from(SPECIAL), _magnitudes(), st.floats(allow_nan=True, allow_infinity=True))


def _rows(n):
    return st.lists(st.tuples(ELEMENTS, ELEMENTS, ELEMENTS), min_size=n, max_size=n).map(
        lambda rows: np.array(rows, dtype=float).reshape(-1, 3)
    )


@st.composite
def row_pairs(draw):
    n = draw(st.integers(0, 12))
    return draw(_rows(n)), draw(_rows(n))


class TestRowHelpersEqualTheFormerOnes:
    @settings(max_examples=300, deadline=None)
    @given(row_pairs())
    def test_norm_rows(self, pair):
        with np.errstate(all="ignore"):
            for vs in pair:
                assert norm_rows(vs).tobytes() == _old_norm_rows(vs).tobytes()

    @settings(max_examples=300, deadline=None)
    @given(row_pairs())
    def test_cross_rows(self, pair):
        a, b = pair
        with np.errstate(all="ignore"):
            new, old = cross_rows(a, b), _old_cross_rows(a, b)
        assert new.shape == old.shape == (len(a), 3)
        assert new.tobytes() == old.tobytes()

    def test_cross_rows_of_broadcast_rows(self):
        normals = np.array([[0.0, 0.6, 0.8], [-0.0, 1.0, 0.0], [3e-310, -1e300, 2.0]])
        up = np.broadcast_to([0.0, 1.0, 0.0], normals.shape)
        with np.errstate(all="ignore"):
            assert cross_rows(normals, up).tobytes() == _old_cross_rows(normals, up).tobytes()

    def test_association_is_left_to_right(self):
        # (1 + 1e-16) + 1e-16 == 1, while 1 + (1e-16 + 1e-16) > 1
        vs = np.array([[1.0, 1e-8, 1e-8]] * 9)
        assert (norm_rows(vs) == 1.0).all() and (_old_norm_rows(vs) == 1.0).all()


# ---- the RK4 on generated scenes ----


def _tilted(tilt: float, turn: float) -> np.ndarray:
    """The unit normal ``tilt`` away from +z, toward azimuth ``turn`` in the xy plane."""
    return hg.vec3(math.sin(tilt) * math.cos(turn), math.sin(tilt) * math.sin(turn), math.cos(tilt))


@st.composite
def scenes(draw):
    """A plane (z-normal or tilted) or sphere host, a directional or point light and an
    infinity (at elevation 0 or not) or orbit view."""
    if draw(st.booleans()):
        tilt, turn = draw(st.one_of(st.just(0.0), st.floats(0.05, 0.4))), draw(st.floats(-math.pi, math.pi))
        host = hg.PlaneHost(normal=_tilted(tilt, turn)) if tilt else hg.PlaneHost()
    else:
        radius = draw(st.floats(30.0, 400.0))  # small spheres let sightlines miss mid-window
        host = hg.SphereHost(hg.vec3(0.0, 0.0, -radius), radius)
    if draw(st.booleans()):
        light = hg.DirectionalLight(draw(st.floats(0.1, 1.2)))
    else:
        xyz = (draw(st.floats(-50.0, 50.0)), draw(st.floats(100.0, 400.0)), draw(st.floats(200.0, 800.0)))
        light = hg.PointLight(hg.vec3(*xyz))
    half = draw(st.floats(0.3, 0.7))
    if draw(st.booleans()):
        view = hg.InfinityView(-half, half, elevation=draw(st.one_of(st.just(0.0), st.floats(-0.3, 0.3))))
    else:
        radius, elevation = draw(st.floats(200.0, 800.0)), draw(st.floats(-0.2, 0.2))
        view = hg.OrbitView(hg.vec3(0, 0, 0), radius, elevation, -half, half)
    stipples = []
    for idx in range(draw(st.integers(1, 5))):
        x, y = draw(st.floats(-50.0, 50.0)), draw(st.floats(-30.0, 30.0))
        z = draw(st.floats(3.0, 15.0)) * draw(st.sampled_from([-1.0, 1.0]))
        if isinstance(host, hg.SphereHost) and draw(st.booleans()):  # near the rim, where sightlines graze
            phi = draw(st.floats(0.6, 1.4)) * draw(st.sampled_from([-1.0, 1.0]))
            x, z = (host.radius + z) * math.sin(phi), (host.radius + z) * math.cos(phi) - host.radius
        center, width = draw(st.floats(-half, half)), draw(st.floats(0.05, 0.6))
        window = (center - 0.5 * width, center + 0.5 * width)
        stipples.append(hg.Stipple(hg.vec3(x, y, z), window=window, stipple_id=idx))
    c0s = [draw(st.floats(-2.0, 2.0)) for _ in stipples]
    return host, light, view, stipples, c0s


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(scenes(), st.sampled_from([0.5, 1.0]), st.booleans())
def test_toolpaths_equal_the_former_stage_loop(scene, step_deg, anchored):
    host, light, view, stipples, c0s = scene
    theta_c = [0.5 * (s.window[0] + s.window[1]) for s in stipples] if anchored else None

    def run():
        return _toolpaths(host, stipples, light, view, math.radians(step_deg), c0s, 0.0, theta_c=theta_c)

    assert [_outcome(p) for p in run()] == [_outcome(p) for p in _former(run)]


# ---- the NaN horizon ----

SPHERE = (
    hg.SphereHost(hg.vec3(0, 0, -200), 200.0),
    hg.PointLight(hg.vec3(0, 300, 600)),
    hg.OrbitView(hg.vec3(0, 0, 0), 500.0, 0.0, -math.pi / 6, math.pi / 6),
)
STIPPLES = [
    hg.Stipple(hg.vec3(5.0, -3.0, 8.0), window=(-0.2, 0.2), stipple_id=0),
    hg.Stipple(hg.vec3(-12.0, 4.0, -6.0), window=(-0.25, 0.15), stipple_id=1),
    hg.Stipple(hg.vec3(20.0, 1.0, 9.0), window=(-0.1, 0.3), stipple_id=2),
]
# a plane under a directional light seen from infinity: a batch with a slope table, whose
# elevation makes xdot a Richardson stencil, so that its x and xdot sweeps can both be poisoned
TABLE = (hg.PlaneHost(), hg.DirectionalLight(0.5), hg.InfinityView(-math.pi / 6, math.pi / 6, elevation=0.1))
STEP, K = math.radians(1.0), 6  # the step whose stage columns 2K, 2K + 1 and 2K + 2 go NaN
FAR = 40  # row 2's first NaN column, long after step K


def _poisoned(first_nan: dict, quantity: str):
    """``sightline_host_intersections`` with NaN hits from column ``first_nan[row]`` on, in the
    batch's x sweep (``quantity`` "x") or in its first two stencil sweeps (``quantity`` "xdot")."""
    real, calls = striping.sightline_host_intersections, []

    def fake(eyes, p, host):
        q, why = real(eyes, p, host)
        calls.append(eyes)
        if (len(calls) == 1) == (quantity == "x") and len(calls) <= 3:
            cols = len(q) // len(STIPPLES)
            for row, col in first_nan.items():
                q[row * cols + col : (row + 1) * cols] = np.nan
        return q, why

    return fake


def _truncated_runs(first_nan: dict, quantity: str, config=SPHERE):
    """The toolpaths of STIPPLES, from this batch and from the former one."""
    def run():
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(striping, "sightline_host_intersections", _poisoned(first_nan, quantity))
            return _toolpaths(config[0], STIPPLES, config[1], config[2], STEP, [0.3, -0.4, 0.1], 0.0)

    return run(), _former(run)


@pytest.mark.parametrize("quantity", ["x", "xdot"])
@pytest.mark.parametrize("col, step", [(2 * K, K - 1), (2 * K + 1, K), (2 * K + 2, K)])
def test_nan_horizon_truncates_in_the_former_step(quantity, col, step):
    _assert_truncates_in_the_former_step(SPHERE, quantity, col, step)


@pytest.mark.parametrize("quantity", ["x", "xdot"])
@pytest.mark.parametrize("col, step", [(2 * K, K - 1), (2 * K + 1, K), (2 * K + 2, K)])
def test_nan_horizon_truncates_a_table_batch_in_the_former_step(quantity, col, step):
    _assert_truncates_in_the_former_step(TABLE, quantity, col, step)


def _assert_truncates_in_the_former_step(config, quantity, col, step):
    new, old = _truncated_runs({1: col, 2: FAR}, quantity, config)
    assert [_outcome(p) for p in new] == [_outcome(p) for p in old]
    lo, hi = STIPPLES[1].window
    h = (hi - lo) / math.ceil((hi - lo) / STEP - 1e-12)
    theta = lo
    for _ in range(step):
        theta += h  # the grid's running sum: the start of the truncated step
    assert new[1].warnings == old[1].warnings
    assert new[1].warnings == (f"sightline missed the host at theta={theta + h:.6f}; truncated",)
    assert new[1].thetas[-1] == old[1].thetas[-1] == theta
    # row 0 has no horizon and row 2's lies far past step K: neither stops near step K
    assert not new[0].warnings and len(new[0].thetas) > 2 * K
    assert new[2].warnings[0].startswith("sightline missed") and len(new[2].thetas) == FAR // 2


def test_nan_horizon_is_the_first_nan_column():
    host, light, view = SPHERE
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(striping, "sightline_host_intersections", _poisoned({1: 2 * K + 1, 2: FAR}, "xdot"))
        ps = np.array([s.p for s in STIPPLES])
        lo, hi = np.array([s.window for s in STIPPLES]).T
        batch = _Batch(host, light, hg.REFLECTION, view, ps, np.ones(3), lo, hi, STEP)
    assert batch.horizon.tolist() == [batch.cols, 2 * K + 1, FAR]
    assert not np.isnan(batch.x[1]).any() and np.isnan(batch.xdot[1, 2 * K + 1 :]).all()


# ---- the slope table of state-free batches ----


def _advanced(host, light, view, media=hg.REFLECTION, stipples=STIPPLES, step=STEP):
    """A batch of ``stipples`` after ``reset`` (that builds no table) and one whole ``advance``."""
    ps = np.array([s.p for s in stipples])
    lo, hi = np.array([s.window for s in stipples]).T
    rows = np.arange(len(stipples))
    batch = _Batch(host, light, media, view, ps, np.ones(len(rows)), lo, hi, step)
    batch.reset(rows, np.zeros(len(rows)), 0.0)
    assert batch.table is None
    with np.errstate(divide="ignore", invalid="ignore"):
        batch.advance(rows, np.full(len(rows), np.inf))
    return batch


def _plane_field(p):
    return hg.vec3(p[0], p[1], 0.0), hg.vec3(0.0, 0.0, 1.0)


SUN, INF, UP = hg.DirectionalLight(0.5), hg.InfinityView(-0.6, 0.6), hg.InfinityView(-0.6, 0.6, elevation=0.2)


@pytest.mark.parametrize(
    "host, light, view, media, tabled",
    [
        (hg.PlaneHost(), SUN, INF, hg.REFLECTION, True),
        (hg.PlaneHost(normal=_tilted(0.3, 1.0)), SUN, UP, hg.REFLECTION, True),
        (hg.PlaneHost(), SUN, hg.InfinityView(-0.6, 0.6, elevation=-0.3), hg.Media(1.0, 1.5), True),
        (hg.PlaneHost(normal=_tilted(0.2, -2.0)), hg.DirectionalLight(1.1), INF, hg.Media(1.5, 1.0), True),
        (hg.SphereHost(hg.vec3(0, 0, -200), 200.0), SUN, INF, hg.REFLECTION, False),
        (hg.NormalFieldHost(_plane_field), SUN, INF, hg.REFLECTION, False),
        (hg.PlaneHost(), hg.PointLight(hg.vec3(0, 300, 600)), INF, hg.REFLECTION, False),
        (hg.PlaneHost(), SUN, hg.OrbitView(hg.vec3(0, 0, 0), 500.0, 0.0, -0.6, 0.6), hg.REFLECTION, False),
    ],
)
def test_only_state_free_batches_get_a_table(host, light, view, media, tabled):
    # the normal-field host scans every sightline: a short window keeps the batch small
    small = isinstance(host, hg.NormalFieldHost)
    stipples = [hg.Stipple(s.p, window=(-0.05, 0.05)) for s in STIPPLES] if small else STIPPLES
    batch = _advanced(host, light, view, media, stipples, 0.05 if small else STEP)
    assert batch.state_free == tabled
    assert (batch.table is not None) == tabled
    if tabled:  # the table holds every stage column: its slopes and split flags
        assert batch.table[0].shape == (batch.x.size, 2) and batch.table[1].shape == (batch.x.size,)


def test_table_build_runs_in_the_errstate_of_toolpaths_over_nan_columns(monkeypatch):
    slope, errs = _Batch._slope, []

    def spy(self, s, yz, pos):
        errs.append(np.geterr())
        return slope(self, s, yz, pos)

    monkeypatch.setattr(_Batch, "_slope", spy)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        new, old = _truncated_runs({0: 3, 1: 2 * K, 2: FAR}, "x", TABLE)
    assert [_outcome(p) for p in new] == [_outcome(p) for p in old]
    assert all(p.warnings[-1].startswith("sightline missed the host") for p in new)
    # one build over every stage column, NaN x included, and no stage evaluates a slope
    assert len(errs) == 1 and errs[0]["divide"] == errs[0]["invalid"] == "ignore"


def test_degenerate_table_splits_every_step_as_the_former_loop():
    # eyes at elevation phi and the light at pi/2 + phi: the glint normal has no y
    # component, so t1 = n x z has (almost) no x component at any stage
    phi = 0.2
    host, light = hg.PlaneHost(), hg.DirectionalLight(math.pi / 2 + phi)
    view = hg.InfinityView(-0.6, 0.6, elevation=phi)
    assert _advanced(host, light, view).table[1].all()

    def run():
        return _toolpaths(host, STIPPLES, light, view, STEP, [0.3, -0.4, 0.1], 0.0)

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        new, old = run(), _former(run)
    assert [_outcome(p) for p in new] == [_outcome(p) for p in old]
    for path, s in zip(new, STIPPLES):
        steps = math.ceil((s.window[1] - s.window[0]) / STEP - 1e-12)
        assert len(path.thetas) == 1 and path.breaks == (1,) * steps
        assert len(path.warnings) == steps
        assert all(w.startswith("degenerate conforming tangent near theta=") for w in path.warnings)


@pytest.mark.parametrize(
    "rows, n, block, sizes",
    [
        (1, 511, 1024, [1023]),  # 1,023 stage columns: one short block
        (3, 170, 1023, [1023]),  # 3 x 341 = 1,023 columns fill one block of 1,023 exactly
        (1, 512, 1024, [1024, 1]),  # 1,025 columns: a full block and one column
        (2, 511, 1023, [1023, 1023]),  # 2 x 1,023: exactly two blocks
        (1, 1024, 1024, [1024, 1024, 1]),  # 2,049 columns
        (3, 341, 1024, [1024, 1024, 1]),  # 3 x 683 = 2,049 columns
    ],
)
def test_table_blocks_equal_one_whole_build_and_the_former_loop(rows, n, block, sizes, monkeypatch):
    # a batch's stage columns are rows x (2 n + 1), never 1,024: the edge of a block of
    # 1,024 columns is met by 1,023 and 1,025 columns, and an exact fill by a block of 1,023
    monkeypatch.setattr(striping, "_TABLE_COLS", block)
    host, light = hg.PlaneHost(normal=_tilted(0.25, 0.7)), hg.DirectionalLight(0.5)
    view = hg.InfinityView(-0.6, 0.6, elevation=0.1)
    ps = [hg.vec3(7.0 * i - 5.0, 3.0 - 2.0 * i, 6.0 + i) for i in range(rows)]
    stipples = [hg.Stipple(p, window=(-0.25, 0.25)) for p in ps]
    step = 0.5 / n
    slope, built = _Batch._slope, []

    def spy(self, s, yz, pos):
        built.append(len(pos))
        return slope(self, s, yz, pos)

    monkeypatch.setattr(_Batch, "_slope", spy)
    batch = _advanced(host, light, view, stipples=stipples, step=step)
    assert batch.cols == 2 * n + 1 and built == sizes
    with np.errstate(divide="ignore", invalid="ignore"):
        whole = slope(batch, np.arange(batch.x.size), 0.0, np.empty((batch.x.size, 3)))
    assert batch.table[0].tobytes() == whole[0].tobytes() and batch.table[1].tobytes() == whole[1].tobytes()

    def run():
        return _toolpaths(host, stipples, light, view, step, [0.2 * i for i in range(rows)], 0.0)

    new, old = run(), _former(run)
    assert [_outcome(p) for p in new] == [_outcome(p) for p in old]
    assert all(len(p.thetas) == n + 1 for p in new)
