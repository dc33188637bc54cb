"""The RK4 stage kernel of ``striping._Batch``: the row helpers and ``advance``
equal the former ones bit for bit, the NaN horizon truncates a row in the
same step, with the same text, as the former per-stage NaN tests did, only
state-free batches read their stage slopes from a table, built in blocks, a
stage's split screen runs the exact split test wherever that test can flag a row,
and every stage configuration and the screen's edges give the former bits and errors."""

import functools
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

    def spy(self, s, yz, pos, run):
        errs.append(np.geterr())
        return slope(self, s, yz, pos, run)

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

    def spy(self, s, yz, pos, run):
        built.append(len(pos))
        return slope(self, s, yz, pos, run)

    monkeypatch.setattr(_Batch, "_slope", spy)
    batch = _advanced(host, light, view, stipples=stipples, step=step)
    assert batch.cols == 2 * n + 1 and built == sizes
    every, columns = np.arange(batch.x.size), (batch.x.ravel(), batch.xdot.ravel(), batch.eye_rows)
    with np.errstate(divide="ignore", invalid="ignore"):
        whole, split = slope(batch, every, 0.0, np.empty((batch.x.size, 3)), columns)
    whole = whole, np.zeros(batch.x.size, dtype=bool) if split is None else split  # None: none splits
    assert batch.table[0].tobytes() == whole[0].tobytes() and batch.table[1].tobytes() == whole[1].tobytes()

    def run():
        return _toolpaths(host, stipples, light, view, step, [0.2 * i for i in range(rows)], 0.0)

    new, old = run(), _former(run)
    assert [_outcome(p) for p in new] == [_outcome(p) for p in old]
    assert all(len(p.thetas) == n + 1 for p in new)


# ---- the fused stage ----


def _pair(host, light, view, media=hg.REFLECTION, stipples=STIPPLES, step=STEP, poison=None):
    """A batch and a former batch of ``stipples``, neither advanced, each built with the
    ``_poisoned(*poison)`` sightlines if given."""
    ps = np.array([s.p for s in stipples])
    lo, hi = np.array([s.window for s in stipples]).T
    args = (host, light, media, view, ps, np.ones(len(ps)), lo, hi, step)
    pair = []
    for cls in (_Batch, _FormerBatch):
        with pytest.MonkeyPatch.context() as mp:
            if poison:
                mp.setattr(striping, "sightline_host_intersections", _poisoned(*poison))
            pair.append(cls(*args))
    return pair


ORBIT = hg.OrbitView(hg.vec3(0, 0, 0), 500.0, 0.0, -math.pi / 6, math.pi / 6)
LAMP = hg.PointLight(hg.vec3(0, 300, 600))
BALL = hg.vec3(0, 0, -200)


@st.composite
def stage_points(draw):
    """Stage points with coordinates of the anchors, of +-0.0 and of nearby floats, so that
    differences to the anchors vanish with either sign."""
    coord = st.one_of(st.sampled_from([0.0, -0.0, 300.0, 600.0, -200.0, 500.0, 1e-300]), st.floats(-700.0, 700.0))
    n = draw(st.integers(1, 9))
    return np.array([[draw(coord) for _ in range(3)] for _ in range(n)])


@settings(max_examples=150, deadline=None)
@given(
    stage_points(),
    st.sampled_from(["plane", "sphere", "inside"]),
    st.booleans(),
    st.booleans(),
    st.sampled_from([hg.REFLECTION, hg.Media(1.0, 1.5), hg.Media(1.3, 1.0)]),
)
def test_fused_stage_equals_the_former_helpers(pos, host, point, orbit, media):
    host = hg.PlaneHost() if host == "plane" else hg.SphereHost(BALL, 200.0, viewer_inside=host == "inside")
    light = LAMP if point else hg.DirectionalLight(0.5)
    new, old = _pair(host, light, ORBIT if orbit else hg.InfinityView(-0.5, 0.5), media)
    e = np.arange(len(pos)) * 7 % new.x.size  # stage columns of every row, and more points than rows
    with np.errstate(all="ignore"):
        try:
            want = [a.tobytes() for a in old._tangents(pos, e)]
        except hg.HologlintError as exc:
            with pytest.raises(type(exc), match=f"^{exc}$"):
                new._tangents(pos, e)
            return
        assert [a.tobytes() for a in new._tangents(pos, e)] == want


@pytest.mark.parametrize(
    "on",
    [("centre",), ("light",), ("eye",), ("light", "eye"), ("eye", "light"), ("eye", "centre"), ("light", "centre")],
)
@pytest.mark.parametrize("near", [0.0, 4e-13])
def test_anchor_guard_raises_the_former_helpers_error_host_first(on, near):
    host = hg.SphereHost(BALL, 200.0)
    batch, _ = _pair(host, LAMP, ORBIT)
    e = np.array([3, 8, 15, 40])  # stage columns of row 0
    pos = np.array([[5.0, -3.0, 8.0], [6.0, -2.0, 7.0], [7.0, -1.0, 6.0], [8.0, 0.0, 5.0]])
    for i, what in enumerate(on):
        pos[i] = {"centre": host.center, "light": LAMP.position, "eye": batch.eye_rows[e[i]]}[what]
        pos[i, 2] += near
    with pytest.raises(hg.HologlintError) as former:
        host.normals_many(pos)
        glint_axes(pos, LAMP, batch.eye_rows[e], hg.REFLECTION)
    with pytest.raises(hg.HologlintError) as fused:
        batch._tangents(pos, e)
    assert (type(fused.value), str(fused.value)) == (type(former.value), str(former.value))
    texts = {
        "centre": "point at sphere center has no nearest host point",
        "light": "surface point coincides with the light source",
        "eye": "surface point coincides with the eye",
    }
    first = "centre" if "centre" in on else "light" if "light" in on else "eye"
    assert str(fused.value) == texts[first]
    kind = hg.errors.HostEvaluationError if first == "centre" else hg.errors.SingularConfigurationError
    assert type(fused.value) is kind


def test_anchor_guard_on_a_plane_host():
    batch, _ = _pair(hg.PlaneHost(), LAMP, ORBIT)
    e = np.array([3, 8])
    for pos, text in (
        (np.array([LAMP.position, batch.eye_rows[8]]), "surface point coincides with the light source"),
        (np.array([[1.0, 2.0, 3.0], batch.eye_rows[8]]), "surface point coincides with the eye"),
    ):
        with pytest.raises(hg.errors.SingularConfigurationError, match=f"^{text}$"):
            batch._tangents(pos, e)


@pytest.mark.parametrize("media", [hg.REFLECTION, hg.Media(1.0, 1.5)])
@pytest.mark.parametrize("inside", [False, True])
@pytest.mark.parametrize("light", [LAMP, hg.DirectionalLight(0.5)])
def test_toolpaths_of_each_anchor_set_equal_the_former_stage_loop(media, inside, light):
    # the property above draws no inside spheres and no refraction
    host = hg.SphereHost(BALL, 200.0, viewer_inside=inside)

    def run():
        return _toolpaths(host, STIPPLES, light, ORBIT, STEP, [0.3, -0.4, 0.1], 0.0, media=media)

    with np.errstate(all="ignore"):
        new, old = run(), _former(run)
    assert [_outcome(p) for p in new] == [_outcome(p) for p in old]


# ---- the screened split test ----


def _exact_splits(t1):
    """The split flags that every stage computed before the screen."""
    nt = _old_norm_rows(t1)
    return (nt < 1e-12) | (np.abs(t1[:, 0]) < 1e-12 * nt)


def _screen_bound(media):
    return 2e-12 * max(1.0, media.eta1 + media.eta2)


def _curved_field(p):
    """A host whose unit normal turns with x: the nearest point is not needed by a stage."""
    return hg.vec3(p[0], p[1], 0.0), _tilted(0.3 * math.tanh(p[0] / 100.0), 0.5)


@functools.cache
def _stage_batch(host: str, point: bool, orbit: bool, media):
    """A batch whose stage columns serve as eyes.  The normal field's nearest points lie on the
    plane z = 0, so its batch takes the plane's sightlines rather than scanning each one."""
    field, plane = host == "field", hg.PlaneHost()
    if field:
        host = hg.NormalFieldHost(_curved_field)
    else:
        host = plane if host == "plane" else hg.SphereHost(BALL, 200.0, viewer_inside=host == "inside")
    ps = np.array([s.p for s in STIPPLES])
    lo, hi = np.array([s.window for s in STIPPLES]).T
    args = (host, LAMP if point else hg.DirectionalLight(0.5), media, ORBIT if orbit else hg.InfinityView(-0.5, 0.5))
    with pytest.MonkeyPatch.context() as mp, np.errstate(all="ignore"):
        if field:
            real = striping.sightline_host_intersections
            mp.setattr(striping, "sightline_host_intersections", lambda eyes, p, _: real(eyes, p, plane))
        return _Batch(*args, ps, np.ones(len(ps)), lo, hi, STEP)


@settings(max_examples=150, deadline=None)
@given(
    stage_points(),
    st.sampled_from(["plane", "sphere", "inside", "field"]),
    st.booleans(),
    st.booleans(),
    st.sampled_from([hg.REFLECTION, hg.Media(1.0, 1.5), hg.Media(1.3, 1.0)]),
)
def test_the_split_screen_is_a_necessary_condition(pos, host, point, orbit, media):
    batch = _stage_batch(host, point, orbit, media)
    e = np.arange(len(pos)) * 7 % batch.x.size
    run = (pos[:, 0], np.ones(len(pos)), batch.eye_rows[e])  # a run's columns: x, dx/dtheta and eyes
    with np.errstate(all="ignore"):
        try:
            t1, _ = batch._tangents(pos, e)
        except hg.HologlintError:
            return
        flags, bound = _exact_splits(t1), _screen_bound(media)
        _, split = batch._slope(e, pos[:, 1:], np.empty_like(pos), run)
    # the bound rests on |t1| <= |n_raw| |n_host| <= (eta1 + eta2)(1 + UNIT_TOL)
    assert not (_old_norm_rows(t1) > (media.eta1 + media.eta2) * (1.0 + 1e-7)).any()
    assert (np.abs(t1[flags, 0]) < bound).all()
    assert not flags.any() if split is None else split.tolist() == flags.tolist()


def _edge_rows(nt):
    """t1 rows of norm ``nt`` whose |t1_x| is 1 ulp under, at and 1 ulp over 1e-12 nt, either sign."""
    rows = []
    for x in (np.nextafter(1e-12 * nt, 0.0), 1e-12 * nt, np.nextafter(1e-12 * nt, np.inf)):
        rows += [[x, nt, 0.0], [-x, 0.0, -nt]]  # x * x vanishes beside nt * nt: each row's norm is nt
    return np.array(rows)


@pytest.mark.parametrize("media", [hg.REFLECTION, hg.Media(1.0, 1.5), hg.Media(1.3, 1.0)])
def test_the_split_screen_runs_the_exact_test_on_its_edge_rows(media, monkeypatch):
    top, bound = media.eta1 + media.eta2, _screen_bound(media)
    rows = np.concatenate([
        _edge_rows(1.0), _edge_rows(top),  # a unit t1 and the longest one
        [[0.0, np.nextafter(1e-12, 0.0), 0.0], [np.nextafter(1e-12, 0.0), 0.0, 0.0]],  # nt just under 1e-12
        [[0.0, 1e-12, 0.0], [1e-6, 1.0, 0.0], [np.nan, 0.0, 0.0]],  # a zero t1_x splits, the others do not
    ])
    flags = _exact_splits(rows)
    assert flags.tolist() == ([True] * 2 + [False] * 4) * 2 + [True] * 3 + [False] * 2
    batch = _stage_batch("sphere", True, True, media)
    monkeypatch.setattr(_Batch, "_tangents", lambda self, pos, e, *rest: (rows[e], None))
    screened = []
    for i in range(len(rows)):  # one row at a time, so that no other row trips the screen for it
        with np.errstate(all="ignore"):
            _, split = batch._slope(np.array([i]), np.zeros((1, 2)), np.empty((1, 3)), (np.zeros(1), np.ones(1), None))
        assert split is None or split.tolist() == [flags[i]]
        screened.append(split is None)
    # the exact test runs where |t1_x| < bound, and so on every row it flags
    assert screened == [not abs(x) < bound for x in rows[:, 0]]
    assert not (flags & screened).any()


# ---- each stage configuration, and the screen's edges ----


def _configuration(host: str, point: bool, orbit: bool):
    """A host, light and view, and the sightline kernel its batch takes: a normal field takes the
    plane's sightlines (its nearest points lie on z = 0) rather than scanning each one."""
    plane, real = hg.PlaneHost(), striping.sightline_host_intersections
    hosts = {"plane": plane, "field": hg.NormalFieldHost(_curved_field)}
    host = hosts.get(host) or hg.SphereHost(BALL, 200.0, viewer_inside=host == "inside")
    sights = (lambda eyes, p, _: real(eyes, p, plane)) if isinstance(host, hg.NormalFieldHost) else real
    return host, LAMP if point else hg.DirectionalLight(0.5), ORBIT if orbit else hg.InfinityView(-0.5, 0.5), sights


MEDIA = [hg.REFLECTION, hg.Media(1.0, 1.5), hg.Media(1.3, 1.0)]


@pytest.mark.parametrize("media", MEDIA, ids=["unit", "1-1.5", "1.3-1"])
@pytest.mark.parametrize("orbit", [True, False], ids=["orbit", "infinity"])
@pytest.mark.parametrize("point", [True, False], ids=["point", "directional"])
@pytest.mark.parametrize("host", ["plane", "sphere", "inside", "field"])
def test_each_stage_configuration_equals_the_former_stage_loop(host, point, orbit, media):
    # every branch that the batch decides once: host kind and side, light, eye, media; with the
    # C0 polish, whose rounds stop rows at theta_c and resume them
    host, light, view, sights = _configuration(host, point, orbit)
    theta_c = [0.5 * (s.window[0] + s.window[1]) for s in STIPPLES]

    def run():
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(striping, "sightline_host_intersections", sights)
            return [
                _toolpaths(host, STIPPLES, light, view, STEP, [0.3, -0.4, 0.1], 0.0, theta_c=tc, media=media)
                for tc in (None, theta_c)
            ]

    with np.errstate(all="ignore"):
        new, old = run(), _former(run)
    for paths, former in zip(new, old):
        assert [_outcome(p) for p in paths] == [_outcome(p) for p in former]


def _former_error(pos, host, light, eyes, media):
    """What the former helpers raise at ``pos``, as (type, text), or None."""
    try:
        host.normals_many(pos)
        glint_axes(pos, light, eyes, media)
    except hg.HologlintError as exc:
        return type(exc), str(exc)
    return None


@pytest.mark.parametrize("anchor", ["centre", "light", "eye"])
@pytest.mark.parametrize(
    "length", [0.0, np.nextafter(1e-12, 0.0), 1e-12, np.nextafter(1e-12, 1.0)], ids=["0", "under", "at", "over"]
)
def test_an_anchor_length_at_the_guard_raises_as_the_former_helpers(anchor, length):
    # a stage point on one anchor, or 1 ulp under, at and 1 ulp over 1e-12 from it (the difference and
    # its norm are exact), through the direct call and through a stage's screen; no divide warns
    host, light, eye = hg.SphereHost(BALL, 200.0), LAMP, hg.vec3(0.0, 0.0, 500.0)
    batch, _ = _pair(host, light, ORBIT)
    at = {"centre": BALL, "light": LAMP.position, "eye": eye}[anchor]
    pos, eyes, e = np.array([at + hg.vec3(length, 0.0, 0.0), [5.0, -3.0, 8.0]]), np.array([eye, eye]), np.arange(2)
    assert norm_rows(pos - at)[0] == length
    want = _former_error(pos, host, light, eyes, hg.REFLECTION)
    assert (want is not None) == (length < 1e-12)
    calls = (
        lambda: batch._tangents(pos, e, eyes),
        lambda: batch._slope(e, pos[:, 1:], np.empty_like(pos), (pos[:, 0], np.ones(2), eyes)),
    )
    for call in calls:
        with warnings.catch_warnings(), np.errstate(divide="ignore", invalid="ignore"):  # _toolpaths' errstate
            warnings.simplefilter("error")
            try:
                call()
                got = None
            except hg.HologlintError as exc:
                got = type(exc), str(exc)
        assert got == want


@pytest.mark.parametrize("media", MEDIA)
def test_the_screen_fires_below_its_bound_and_not_at_it(media, monkeypatch):
    # t1 rows whose |t1_x| is 1 ulp under, at and 1 ulp over the bound, either sign: the exact split
    # test runs on the rows under it only, and flags none of them
    bound = _screen_bound(media)
    rows = np.array([[sign * x, 1.0, 0.0] for x in (np.nextafter(bound, 0.0), bound, np.nextafter(bound, 1.0))
                     for sign in (1.0, -1.0)])
    batch = _stage_batch("sphere", True, True, media)
    monkeypatch.setattr(_Batch, "_tangents", lambda self, pos, e, *rest: (rows[e], None))
    screened = []
    for i in range(len(rows)):
        with np.errstate(all="ignore"):
            _, split = batch._slope(np.array([i]), np.zeros((1, 2)), np.empty((1, 3)), (np.zeros(1), np.ones(1), None))
        assert split is None or split.tolist() == [False]
        screened.append(split is None)
    assert screened == [False, False, True, True, True, True]
    assert not _exact_splits(rows).any()


# ---- runs of steps ----


def _state(batch):
    """Everything ``advance`` writes, as exact bytes."""
    return (batch.yz.tobytes(), batch.kept.tobytes(), batch.at.tolist(), batch.state.tobytes(),
            batch.live.tolist(), batch.breaks, batch.warnings)


def _runs(pair, rows, stop, restart=None):
    """Reset the ``restart`` rows of both batches of ``pair`` (every row if None), advance
    ``rows`` to ``stop``, assert that they agree and return the row count and the step
    pointers that the new batch's ``_slope`` calls saw."""
    slope, calls = _Batch._slope, []

    def spy(self, s, yz, pos, *run):
        calls.append((len(s), self.at.tolist()))
        return slope(self, s, yz, pos, *run)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_Batch, "_slope", spy)
        for batch in pair:
            reset = np.arange(len(batch.n)) if restart is None else np.asarray(restart, dtype=int)
            batch.reset(reset, np.array([0.3, -0.4, 0.1])[reset], 0.0)
            with np.errstate(divide="ignore", invalid="ignore"):
                batch.advance(np.asarray(rows), np.asarray(stop, dtype=float))
    assert _state(pair[0]) == _state(pair[1])
    return calls


# Each run-boundary case takes the configuration of its batch: SPHERE steps its rows in runs
# and calls ``_slope`` per stage, TABLE (state-free) runs each row in one sum after the table
# build.  Both must write what the former loop writes; the call patterns are SPHERE's.


def _two_stops(config, exact):
    """Row 0 stops at grid column 5 (exactly on it, or 0.3 h before it), row 1 at column 12."""
    pair = _pair(*config, stipples=STIPPLES[:2])
    grid, h = pair[0].grid, pair[0].h
    stop = [grid[0, 5] - (0.0 if exact else 0.3 * h[0]), grid[1, 12] - 0.3 * h[1]]
    calls = _runs(pair, [0, 1], stop)
    assert pair[0].at.tolist() == [5, 12] and pair[0].kept[0, :6].all() and not pair[0].kept[0, 6:].any()
    return calls


@pytest.mark.parametrize("exact", [False, True])
def test_a_run_ends_at_the_first_stop_and_the_next_carries_on(exact):
    # a 5-step run of both rows, then a 7-step run of row 1
    calls = _two_stops(SPHERE, exact)
    assert [n for n, _ in calls] == [2] * 4 * 5 + [1] * 4 * 7
    assert calls[4 * 5][1] == [5, 5]  # the second run starts where the first wrote back


def _degenerate_at(col, monkeypatch):
    """Both batches' ``_tangents`` with t1 = 0 at flat stage index ``col``: a split there."""
    for cls in (_Batch, _FormerBatch):
        tangents = cls._tangents

        def degenerate(self, pos, e, *eyes, tangents=tangents):
            t1, n_raw = tangents(self, pos, e, *eyes)
            return np.where((e == col)[:, None], 0.0, t1), n_raw

        monkeypatch.setattr(cls, "_tangents", degenerate)


M = 4  # the step whose midpoint stage splits row 0


def _split_in_run(config, monkeypatch):
    """A degenerate t1 at row 0's midpoint stage of step M: sample M + 1 is not kept."""
    _degenerate_at(2 * M + 1, monkeypatch)
    pair = _pair(*config, stipples=STIPPLES[:2])
    calls = _runs(pair, [0, 1], [np.inf, np.inf])
    assert pair[0].breaks[0] == [M + 1] and pair[0].warnings[0][0].endswith("; split")
    assert not pair[0].kept[0, M + 1] and pair[0].kept[0, M + 2] and pair[0].kept[1].sum() == pair[0].n[1] + 1
    return calls


def test_a_split_inside_a_run_ends_it_after_that_step(monkeypatch):
    # the step finishes for row 1, and the next run resumes row 0 from step M + 1
    calls = _split_in_run(SPHERE, monkeypatch)
    assert [n for n, _ in calls[: 4 * M + 4]] == [2] * (4 * M + 2) + [1, 1]
    assert calls[4 * M + 4] == (2, [M + 1, M + 1])


def _split_past_stop(config, monkeypatch):
    """Row 0 splits in step M and stops exactly at column M + 1, whose sample it does not
    hold: it takes step M + 1 too, to hold sample M + 2."""
    _degenerate_at(2 * M + 1, monkeypatch)
    pair = _pair(*config, stipples=STIPPLES[:2])
    calls = _runs(pair, [0, 1], [pair[0].grid[0, M + 1], np.inf])
    assert pair[0].at[0] == M + 2 and pair[0].kept[0, M + 2] and not pair[0].kept[0, M + 1]
    return calls


def test_a_split_row_resumes_from_the_next_step_past_its_stop(monkeypatch):
    # row 0 resumes at step M + 1 for a one-step run
    calls = _split_past_stop(SPHERE, monkeypatch)
    assert calls[4 * M + 4] == (2, [M + 1, M + 1])  # both rows after the split step
    assert [n for n, _ in calls[4 * M + 4 : 4 * M + 12]] == [2] * 4 + [1] * 4


@pytest.mark.parametrize(
    "off, breaks",
    [(0, [M, M]), (1, [M + 1]), (2, [M + 1, M + 1])],
    ids=["stage-1", "stages-2-3", "stage-4"],
)
def test_a_split_at_each_stage_of_a_step_equals_the_former_loop(off, breaks, monkeypatch):
    # column 2M is stage 4 of step M - 1 and stage 1 of step M, column 2M + 1 stages 2 and 3 of
    # step M, column 2M + 2 stage 4 of step M and stage 1 of step M + 1: each splits row 0
    _degenerate_at(2 * M + off, monkeypatch)
    pair = _pair(*SPHERE)
    _runs(pair, [0, 1, 2], [np.inf] * 3)
    assert pair[0].breaks == {0: breaks, 1: [], 2: []}
    assert pair[0].at.tolist() == pair[0].n.tolist() and pair[0].live.all()


def test_two_rows_that_split_at_different_stages_of_one_step_equal_the_former_loop(monkeypatch):
    # row 0 leaves step M at its stage 2 and row 1 at its stage 4, so the run's gathered
    # columns are filtered twice in that step; row 1 splits again at stage 1 of step M + 1
    pair = _pair(*SPHERE)
    _degenerate_at(2 * M + 1, monkeypatch)
    _degenerate_at(pair[0].cols + 2 * M + 2, monkeypatch)
    calls = _runs(pair, [0, 1, 2], [np.inf] * 3)
    assert [n for n, _ in calls[: 4 * M + 8]] == [3] * (4 * M + 2) + [2, 2] + [3, 2, 2, 2]
    assert pair[0].breaks == {0: [M + 1], 1: [M + 1, M + 1], 2: []}
    assert calls[4 * M + 8] == (3, [M + 2] * 3)


def _truncation_in_run(config):
    """Row 1 loses its sightline at the midpoint stage of step K; row 2 stops at column K + 3."""
    pair = _pair(*config, poison=({1: 2 * K + 1}, "x"))
    calls = _runs(pair, [0, 1, 2], [np.inf, np.inf, pair[0].grid[2, K + 3] - 0.3 * pair[0].h[2]])
    assert pair[0].warnings[1][0].endswith("; truncated") and not pair[0].live[1]
    assert pair[0].at.tolist() == [pair[0].n[0], K + 1, K + 3]
    return calls


def test_a_truncation_inside_a_run_ends_it_after_that_step():
    calls = _truncation_in_run(SPHERE)
    sizes = [n for n, _ in calls]
    assert sizes[: 4 * K + 1] == [3] * (4 * K + 1) and sizes[4 * K + 1 : 4 * K + 4] == [2] * 3  # x is NaN
    assert sizes[4 * K + 4 : 4 * K + 12] == [2] * 8 and set(sizes[4 * K + 12 :]) == {1}
    assert calls[4 * K + 4][1] == [K + 1, K + 1, K + 1]


@pytest.mark.parametrize(
    "case",
    [
        lambda mp: _two_stops(TABLE, exact=False),
        lambda mp: _two_stops(TABLE, exact=True),
        lambda mp: _split_in_run(TABLE, mp),
        lambda mp: _split_past_stop(TABLE, mp),
        lambda mp: _truncation_in_run(TABLE),
    ],
    ids=["stops", "stop-on-a-column", "split", "split-past-stop", "truncation"],
)
def test_state_free_rows_meet_the_run_boundaries_of_the_former_loop(case, monkeypatch):
    assert len(case(monkeypatch)) == 1  # one table build, and no stage evaluates a slope


CONFIGS = pytest.mark.parametrize("config", [SPHERE, TABLE], ids=["sphere", "table"])


@CONFIGS
def test_a_split_in_the_last_step_ends_the_row_without_its_last_sample(config, monkeypatch):
    pair = _pair(*config, stipples=STIPPLES[:2])
    n = pair[0].n[0]
    _degenerate_at(2 * n - 1, monkeypatch)  # row 0's midpoint stage of step n - 1
    _runs(pair, [0, 1], [np.inf, np.inf])
    assert pair[0].at[0] == n and pair[0].live[0] and pair[0].breaks[0] == [n]
    assert pair[0].kept[0, :n].all() and not pair[0].kept[0, n]


@CONFIGS
def test_resumed_and_restarted_rows_enter_one_advance_at_their_own_pointers(config):
    # row 0 stops at column 5 and row 1 at column 3; then row 1 restarts from step 0 while
    # row 0 resumes from step 5, and both run to their window ends in one advance
    pair = _pair(*config, stipples=STIPPLES[:2])
    grid, h = pair[0].grid, pair[0].h
    _runs(pair, [0, 1], [grid[0, 5] - 0.3 * h[0], grid[1, 3] - 0.3 * h[1]])
    assert pair[0].at.tolist() == [5, 3]
    calls = _runs(pair, [0, 1], [np.inf, np.inf], restart=[1])
    assert pair[0].at.tolist() == pair[0].n.tolist() and pair[0].kept.sum() == (pair[0].n + 1).sum()
    if config is SPHERE:
        assert calls[0] == (2, [5, 0])


@CONFIGS
def test_a_negative_zero_state_keeps_its_sign_across_a_split(config, monkeypatch):
    # row 0 starts at (y, z) = (-0.0, -0.0), splits in step 0 and truncates in step 1: neither
    # step moves its state, so both zeros keep their sign
    _degenerate_at(1, monkeypatch)
    pair = _pair(*config, poison=({0: 3}, "x"))
    for batch in pair:
        batch.reset(np.arange(3), np.array([0.3, -0.4, 0.1]), 0.0)
        batch.state[0] = batch.yz[0, 0] = -0.0
    _runs(pair, [0, 1, 2], [np.inf] * 3, restart=[])
    assert np.signbit(pair[0].state[0]).all() and pair[0].state[0].tolist() == [0.0, 0.0]
    assert pair[0].at[0] == 2 and not pair[0].live[0] and pair[0].breaks[0] == [1]
    assert [w.rsplit("; ", 1)[1] for w in pair[0].warnings[0]] == ["split", "truncated"]


@CONFIGS
@pytest.mark.parametrize("quantity, ends", [("x", ["truncated"]), ("xdot", ["split", "truncated"])])
def test_a_split_column_with_a_nan_x_truncates_and_with_a_nan_xdot_splits(config, quantity, ends, monkeypatch):
    # row 1's midpoint stage of step K has a degenerate t1 and, from it on, a NaN x or xdot:
    # a NaN x is tested before the split, a NaN xdot after it
    pair = _pair(*config, poison=({1: 2 * K + 1}, quantity))
    _degenerate_at(pair[0].cols + 2 * K + 1, monkeypatch)
    _runs(pair, [0, 1, 2], [np.inf] * 3)
    assert [w.rsplit("; ", 1)[1] for w in pair[0].warnings[1]] == ends
    assert pair[0].breaks[1] == [K + 1] * (len(ends) - 1) and not pair[0].live[1]
