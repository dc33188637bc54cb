"""Row-wise forms that replaced per-row Python loops or duplicated host code:
``ridging._ring``, ``ridging._merge_stations`` and ``_interval_intersect``
equal their former loops bit for bit, and ``normals_many`` equals the
normals of ``nearest_many`` on every host."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hologlint as hg
from hologlint.errors import HostEvaluationError
from hologlint.geom import norm_rows
from hologlint.ridging import FULL_INTERVAL, _interval_intersect, _merge_stations, _ring

FLOATS = st.floats(-1e3, 1e3) | st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-300, 1e300, -1e300])
VEC = st.tuples(FLOATS, FLOATS, FLOATS).map(np.array)


# ---- the former loops, verbatim ----


def _former_ring(e1, e2, phis: np.ndarray) -> np.ndarray:
    """Unit host offsets cos(phi)*e1 + sin(phi)*e2, one row per azimuth."""
    return np.array([math.cos(f) * e1 + math.sin(f) * e2 for f in phis])


def _former_merge_stations(phis: np.ndarray, keep: np.ndarray) -> tuple[tuple[float, float], ...]:
    """Merge consecutive retained stations (circular) into azimuth intervals."""
    if keep.all():
        return (FULL_INTERVAL,)
    if not keep.any():
        return ()
    n = len(phis)
    half = math.pi / n  # stations tile 2*pi/n each
    runs = []
    idx = 0
    while idx < n:
        if keep[idx]:
            start = idx
            while idx < n and keep[idx]:
                idx += 1
            runs.append((start, idx - 1))
        else:
            idx += 1
    # join a run that wraps past the -pi/pi seam
    if len(runs) > 1 and runs[0][0] == 0 and runs[-1][1] == n - 1:
        last = runs.pop()
        runs[0] = (last[0] - n, runs[0][1])
    out = []
    for a, b in runs:
        lo = phis[a] - half if a >= 0 else phis[a + n] - 2.0 * math.pi - half
        out.append((lo, phis[b] + half))
    return tuple(out)


def _former_interval_intersect(intervals, other):
    out = []
    for a0, a1 in intervals:
        for b0, b1 in other:
            lo, hi = max(a0, b0), min(a1, b1)
            if lo < hi:
                out.append((lo, hi))
    return tuple(out)


def _former_sphere_nearest_many(host: hg.SphereHost, ps: np.ndarray):
    r = ps - host.center
    d = norm_rows(r)
    if (d < 1e-12).any():
        raise HostEvaluationError("point at sphere center has no nearest host point")
    radial = r / d[:, None]
    q = host.center + host.radius * radial
    n = -radial if host.viewer_inside else radial
    return q, n


# ---- _ring ----


@settings(max_examples=80)
@given(VEC, VEC, st.lists(st.floats(-100.0, 100.0) | st.sampled_from([0.0, -0.0, math.pi, -math.pi]),
                          min_size=1, max_size=40))
def test_ring_equals_the_former_per_azimuth_rows(e1, e2, phis):
    # every caller passes at least one azimuth
    phis = np.array(phis)
    assert _ring(e1, e2, phis).tobytes() == _former_ring(e1, e2, phis).tobytes()


def test_ring_of_the_mesh_and_crop_stations():
    e1, e2 = hg.geom.nullspace_basis(hg.vec3(0.0, 0.0, 1.0))
    for phis in (np.linspace(-math.pi, math.pi, 24, endpoint=False),
                 np.linspace(-math.pi, math.pi, 180, endpoint=False) + math.pi / 180,
                 np.linspace(-0.3, 2.9, 81)):
        assert _ring(e1, e2, phis).tobytes() == _former_ring(e1, e2, phis).tobytes()
        assert _ring(e2, -e1, phis).tobytes() == _former_ring(e2, -e1, phis).tobytes()


# ---- station runs and interval intersection ----


@settings(max_examples=200)
@given(st.lists(st.booleans(), min_size=1, max_size=200))
def test_merge_stations_equals_the_former_run_scan(keep):
    n = len(keep)
    phis = np.linspace(-math.pi, math.pi, n, endpoint=False) + math.pi / n  # crop_ridging's stations
    keep = np.array(keep)
    new, old = _merge_stations(phis, keep), _former_merge_stations(phis, keep)
    assert new == old
    assert [type(v) for pair in new for v in pair] == [type(v) for pair in old for v in pair]


@pytest.mark.parametrize("keep", [
    [True] * 5, [False] * 5, [True, False, False, False, True], [True, True, False, True, True],
    [False, True, True, False], [True], [False], [True, False] * 4, [False, True] * 4,
])
def test_merge_stations_at_the_seam(keep):
    phis = np.linspace(-math.pi, math.pi, len(keep), endpoint=False) + math.pi / len(keep)
    keep = np.array(keep)
    assert _merge_stations(phis, keep) == _former_merge_stations(phis, keep)


INTERVALS = st.lists(st.tuples(st.floats(-4.0, 4.0), st.floats(-4.0, 4.0)).map(sorted).map(tuple),
                     max_size=5)


@settings(max_examples=100)
@given(INTERVALS, INTERVALS)
def test_interval_intersect_equals_the_former_double_loop(a, b):
    assert _interval_intersect(tuple(a), tuple(b)) == _former_interval_intersect(a, b)


# ---- normals_many ----

POINTS = st.lists(st.tuples(FLOATS, FLOATS, FLOATS), min_size=0, max_size=20).map(
    lambda rows: np.reshape(np.array(rows, dtype=float), (-1, 3)))


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@settings(max_examples=60)
@given(POINTS, st.booleans(), st.floats(0.5, 500.0))
def test_sphere_nearest_and_normals_equal_the_former_nearest(ps, inside, radius):
    host = hg.SphereHost(hg.vec3(1.0, -2.0, -200.0), radius, viewer_inside=inside)
    try:
        old = _former_sphere_nearest_many(host, ps)
    except HostEvaluationError as exc:
        for query in (host.nearest_many, host.normals_many):
            with pytest.raises(HostEvaluationError, match=str(exc)):
                query(ps)
        return
    q, n = host.nearest_many(ps)
    assert q.tobytes() == old[0].tobytes() and n.tobytes() == old[1].tobytes()
    assert host.normals_many(ps).tobytes() == old[1].tobytes()


@settings(max_examples=40)
@given(POINTS)
def test_plane_normals_equal_the_nearest_normals(ps):
    host = hg.PlaneHost(hg.vec3(0.0, 0.0, 3.0), hg.vec3(0.0, 0.6, 0.8))
    assert host.normals_many(ps).tobytes() == host.nearest_many(ps)[1].tobytes()
    assert host.normals_many(ps).shape == ps.shape


def test_normal_field_normals_fall_back_to_nearest():
    def query(p):
        return hg.vec3(p[0], p[1], 0.0), hg.vec3(0.0, 0.0, 1.0 if p[0] >= 0 else -1.0)

    host = hg.NormalFieldHost(query)
    ps = np.array([[1.0, 2.0, 3.0], [-1.0, 0.0, 5.0]])
    assert host.normals_many(ps).tobytes() == host.nearest_many(ps)[1].tobytes()
    assert host.normals_many(ps)[:, 2].tolist() == [1.0, -1.0]


def test_sphere_center_has_no_normal():
    host = hg.SphereHost(hg.vec3(0.0, 0.0, -200.0), 200.0)
    with pytest.raises(HostEvaluationError):
        host.normals_many(np.array([[0.0, 0.0, -200.0]]))
