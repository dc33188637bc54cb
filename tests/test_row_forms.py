"""Row-wise forms that replaced per-row Python loops or duplicated host code:
``ridging._ring``, ``ridging._merge_stations``, ``_interval_intersect`` and
``geom.colinearity_residuals`` equal their former loops bit for bit, and
``normals_many`` equals the normals of ``nearest_many`` on every host."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hologlint as hg
from hologlint.errors import DegenerateGeometryError, HologlintError, HostEvaluationError, SingularConfigurationError
from hologlint.geom import EyeAtInfinity, colinearity_residuals, norm, norm_rows, unit
from hologlint.ridging import FULL_INTERVAL, _interval_intersect, _merge_stations, _ring

FLOATS = st.floats(-1e3, 1e3) | st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-300, 1e300, -1e300])
VEC = st.tuples(FLOATS, FLOATS, FLOATS).map(np.array)


# ---- the former loops, verbatim ----


def _former_ring(e1, e2, phis: np.ndarray) -> np.ndarray:
    """Unit host offsets cos(phi)*e1 + sin(phi)*e2, one row per azimuth."""
    return np.array([math.cos(f) * e1 + math.sin(f) * e2 for f in phis])


def _former_merge_stations(phis: np.ndarray, keep: np.ndarray) -> tuple[tuple[float, float], ...]:
    """Merge consecutive retained stations into azimuth intervals.  The former loop also joined a
    run that wraps the -pi/pi seam into one interval starting below -pi, of which the crop then kept
    only the part below the seam; that join is left out, so a wrapped run gives two intervals."""
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
    out = []
    for a, b in runs:
        out.append((phis[a] - half, phis[b] + half))
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


def _former_nullspace_basis(x):
    """Deterministic orthonormal basis of the plane perpendicular to ``x``.

    Gram-Schmidt against the coordinate axis of smallest magnitude in
    ``unit(x)``, so repeated calls produce identical residual vectors.
    """
    u = unit(x)
    k = int(np.argmin(np.abs(u)))
    axis = np.zeros(3)
    axis[k] = 1.0
    b1 = unit(axis - u[k] * u)
    b2 = np.cross(u, b1)
    return b1, b2


def _former_colinearity_residual(s, p, eye):
    """Components of ``s - p`` perpendicular to the sightline through ``p``.

    Zero iff ``s`` lies on the line through the eye and ``p``.  The nullspace
    basis is deterministic, so residual vectors are reproducible.
    """
    if isinstance(eye, EyeAtInfinity):
        x = eye.direction
    else:
        x = eye - p
        if norm(x) < 1e-12:
            raise SingularConfigurationError("eye coincides with the virtual point")
    b1, b2 = _former_nullspace_basis(x)
    d = s - p
    return float(np.dot(b1, d)), float(np.dot(b2, d))


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


def _half_flipped(p):
    """The plane z = 0, its normal flipped where x < 0: a row-wise field."""
    return p * [1.0, 1.0, 0.0], np.column_stack([np.zeros((len(p), 2)), np.where(p[:, 0] >= 0, 1.0, -1.0)])


def test_normal_field_normals_fall_back_to_nearest():
    host = hg.NormalFieldHost(_half_flipped)
    ps = np.array([[1.0, 2.0, 3.0], [-1.0, 0.0, 5.0]])
    assert host.normals_many(ps).tobytes() == host.nearest_many(ps)[1].tobytes()
    assert host.normals_many(ps)[:, 2].tolist() == [1.0, -1.0]
    q, n = host.nearest(ps[1])  # one point is the one-row case
    assert q.tobytes() == hg.vec3(-1.0, 0.0, 0.0).tobytes() and n.tolist() == [0.0, 0.0, -1.0]


def test_normal_field_queries_each_row_set_once():
    calls = []
    host = hg.NormalFieldHost(lambda p: calls.append(len(p)) or _half_flipped(p))
    host.nearest_many(np.zeros((7, 3)))
    assert calls == [7]


@pytest.mark.parametrize(
    "answer, kind, text",
    [
        (lambda p: 1 / 0, HostEvaluationError, "normal field query failed: division by zero"),
        (lambda p: (p[:1], p[:1]), HostEvaluationError, r"normal field query answered \(3, 3\) points"),
        (lambda p: (p, p[:, :2]), HostEvaluationError, r"normal field query answered \(3, 3\) points"),
        (lambda p: (p, [[0, 0, 1], [0, 0, 2], [0, 0, 3]]), DegenerateGeometryError,
         r"normal field normal must be a unit vector \(norm=2\)"),  # the first bad row
    ],
)
def test_normal_field_query_errors(answer, kind, text):
    with pytest.raises(kind, match=text):
        hg.NormalFieldHost(answer).nearest_many(np.ones((3, 3)))


def test_sphere_center_has_no_normal():
    host = hg.SphereHost(hg.vec3(0.0, 0.0, -200.0), 200.0)
    with pytest.raises(HostEvaluationError):
        host.normals_many(np.array([[0.0, 0.0, -200.0]]))


# ---- colinearity_residuals ----

# ties in |u| (so that argmin takes the first), +-0.0, subnormals and ordinary values
PARTS = st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.0, -2.0, 0.5, 5e-324, -5e-324, 2.2e-308, 1e-13]) | st.floats(-50.0, 50.0)
PART_VEC = st.tuples(PARTS, PARTS, PARTS).map(np.array)
# an eye at p plus one of these offsets: coincident below 1e-12, subnormal, tied, ordinary
OFFSETS = st.sampled_from([(0.0, 0.0, 0.0), (-0.0, 5e-324, 0.0), (1e-13, 0.0, -1e-13), (3e-13, 0.0, 0.0),
                           (1.0, 1.0, 1.0), (0.0, -3.0, 3.0)]).map(np.array) | PART_VEC


def _outcome(fn):
    """Exact bytes of a result, or the type and text of the error it raised."""
    try:
        return np.asarray(fn(), dtype=float).tobytes()
    except HologlintError as exc:
        return type(exc).__name__, str(exc)


@settings(max_examples=300)
@given(st.lists(st.tuples(PART_VEC, PART_VEC, OFFSETS), min_size=1, max_size=6), st.booleans(), st.booleans())
def test_colinearity_residuals_equal_the_former_scalar_residual(rows, at_infinity, one_eye):
    """Rows of points s against points p seen from eyes at p + offset, or at infinity along the
    offset: one per row, or (as the mesh search passes them) one p and one eye for every row."""
    s, p, off = (np.array(c) for c in zip(*rows))
    if one_eye:
        p, off = p[0], off[0]
    eye = EyeAtInfinity(off) if at_infinity else p + off
    ps, offs = np.broadcast_to(p, s.shape), np.broadcast_to(off, s.shape)
    eyes = [EyeAtInfinity(o) if at_infinity else q + o for q, o in zip(ps, offs)]
    old = _outcome(lambda: [_former_colinearity_residual(*row) for row in zip(s, ps, eyes)])
    assert _outcome(lambda: colinearity_residuals(s, p, eye)) == old
    one = (s[0], ps[0], eyes[0])
    assert _outcome(lambda: hg.colinearity_residual(*one)) == _outcome(lambda: _former_colinearity_residual(*one))
    assert _outcome(lambda: hg.geom.nullspace_basis(off[0] if off.ndim > 1 else off)) == _outcome(
        lambda: _former_nullspace_basis(off[0] if off.ndim > 1 else off))


def test_colinearity_residuals_raise_the_coincident_eye_error_only_with_rows():
    p = hg.vec3(1.0, 2.0, 3.0)
    with pytest.raises(SingularConfigurationError, match="^eye coincides with the virtual point$"):
        colinearity_residuals(np.array([[0.0, 0.0, 0.0]]), p, p + 1e-13)
    assert colinearity_residuals(np.zeros((0, 3)), p, p).shape == (0, 2)
    assert colinearity_residuals(np.zeros((0, 3)), p, EyeAtInfinity(np.zeros(3))).shape == (0, 2)
