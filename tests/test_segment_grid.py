"""Arc placement: the array-backed segment grid answers every query as the
list-and-dict grid it replaced, segment distances and vertical gaps do not
depend on their batch, and a crowded 320-stipple striping keeps its pinned
arcs and rejections."""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hologlint as hg
from hologlint.geom import sightline_host_intersections
from hologlint.striping import _SegmentGrid, _vertical_gaps, segment_pair_distance


class ListSegmentGrid:
    """The former ``_SegmentGrid``, verbatim: per-segment cell keys in a dict of lists."""

    def __init__(self, cell: float):
        self.cell = cell
        self.cells: dict[tuple[int, int], list[int]] = {}
        self.seg_p1 = []
        self.seg_p2 = []
        self.seg_owner = []

    def _keys(self, p1, p2, pad):
        lo = np.minimum(p1, p2)[:2] - pad
        hi = np.maximum(p1, p2)[:2] + pad
        i0, j0 = int(math.floor(lo[0] / self.cell)), int(math.floor(lo[1] / self.cell))
        i1, j1 = int(math.floor(hi[0] / self.cell)), int(math.floor(hi[1] / self.cell))
        for i in range(i0, i1 + 1):
            for j in range(j0, j1 + 1):
                yield (i, j)

    def insert(self, segs: np.ndarray, owner: int):
        for p1, p2 in segs:
            idx = len(self.seg_p1)
            self.seg_p1.append(p1)
            self.seg_p2.append(p2)
            self.seg_owner.append(owner)
            for key in self._keys(p1, p2, 0.0):
                self.cells.setdefault(key, []).append(idx)

    def first_collision(self, segs: np.ndarray, clearance: float):
        """Owner id of the first accepted segment within ``clearance``, else None."""
        if not self.seg_p1:
            return None
        sp1 = np.array(self.seg_p1)
        sp2 = np.array(self.seg_p2)
        for p1, p2 in segs:
            cand: set[int] = set()
            for key in self._keys(p1, p2, clearance):
                cand.update(self.cells.get(key, ()))
            if not cand:
                continue
            idx = sorted(cand)
            d = segment_pair_distance(
                np.broadcast_to(p1, (len(idx), 3)),
                np.broadcast_to(p2, (len(idx), 3)),
                sp1[idx],
                sp2[idx],
            )
            j = int(np.argmin(d))
            if d[j] < clearance - 1e-12:
                return self.seg_owner[idx[j]]
        return None


def polyline(*points):
    """(S, 2, 3) segments joining consecutive points given as (x, y) or (x, y, z)."""
    pts = np.array([(*p, 0.0)[:3] for p in points], dtype=float)
    return np.stack([pts[:-1], pts[1:]], axis=1)


def first_collision(cell, accepted, query, clearance):
    """The array grid's answer for ``query`` once it holds the (segments, owner)
    pairs of ``accepted``, after checking that the list grid gives the same one."""
    new, old = _SegmentGrid(cell), ListSegmentGrid(cell)
    for segs, owner in accepted:
        new.insert(segs, owner)
        old.insert(segs, owner)
    got = new.first_collision(query, clearance)
    assert got == old.first_collision(query, clearance)
    return got


# walks on a quarter-unit lattice, so that touching segments, equal distances,
# gaps of exactly the clearance and near misses across cell borders come up often
quarter = st.integers(-3, 3).map(lambda k: k / 4.0)
start = st.tuples(*(st.integers(-12, 12).map(lambda k: k / 4.0),) * 2, st.sampled_from([0.0, 0.25, -0.5]))
arc = st.builds(
    lambda p, steps: polyline(*np.cumsum([p, *steps], axis=0)),
    start,
    st.lists(st.tuples(quarter, quarter, st.sampled_from([0.0, 0.0, 0.25])), min_size=1, max_size=8),
)


@settings(max_examples=300)
@given(
    cell=st.sampled_from([0.5, 0.8, 1.0, 2.0]),
    clearance=st.sampled_from([0.25, 0.4, 0.5, 1.0]),
    arcs=st.lists(st.tuples(arc, st.booleans()), min_size=1, max_size=12),
)
def test_grid_answers_every_query_as_the_list_grid(cell, clearance, arcs):
    new, old = _SegmentGrid(cell), ListSegmentGrid(cell)
    for owner, (segs, force) in enumerate(arcs):
        got = new.first_collision(segs, clearance)
        assert got == old.first_collision(segs, clearance)
        if got is None or force:  # forced inserts crowd the grid with overlapping owners
            new.insert(segs, owner)
            old.insert(segs, owner)


def test_empty_grid_has_no_collision():
    assert first_collision(1.0, [], polyline((0, 0), (1, 0)), 0.4) is None


def test_touching_segments_collide():
    accepted = [(polyline((0, 0), (1, 0)), 3)]
    assert first_collision(1.0, accepted, polyline((1, 0), (1, 1)), 0.4) == 3


def test_equal_distances_go_to_the_lowest_accepted_row():
    # owner 7 is accepted first, 2 below and 5 above: the query is 0.25 from all three
    accepted = [
        (polyline((0, 0.25), (1, 0.25)), 7),
        (polyline((0, -0.25), (1, -0.25)), 2),
        (polyline((0.5, 0.25), (0.5, 1.5)), 5),
    ]
    assert first_collision(1.0, accepted, polyline((0, 0), (1, 0)), 0.4) == 7
    assert first_collision(1.0, accepted[1:], polyline((0, 0), (1, 0)), 0.4) == 2


def test_first_segment_in_arc_order_wins_over_a_nearer_later_one():
    accepted = [(polyline((0, 0.3), (1, 0.3)), 1), (polyline((2, 0.1), (3, 0.1)), 2)]
    assert first_collision(1.0, accepted, polyline((0, 0), (1, 0), (2, 0), (3, 0)), 0.4) == 1
    assert first_collision(1.0, accepted, polyline((3, 0), (2, 0), (1, 0), (0, 0)), 0.4) == 2


def test_gap_at_the_clearance_margin():
    clearance = 0.5
    edge = clearance - 1e-12  # a gap must be strictly below this to collide
    for gap, want in ((clearance, None), (edge, None), (np.nextafter(edge, 0.0), 4)):
        accepted = [(polyline((0, gap), (1, gap)), 4)]
        assert first_collision(1.0, accepted, polyline((0, 0), (1, 0)), clearance) == want


def test_neighbour_cell_is_reached_through_the_query_padding():
    # the accepted segment sits only in cell x = 1; the query's unpadded box only in cell x = 0
    accepted = [(polyline((2.1, 0.5), (3.0, 0.5)), 9)]
    assert first_collision(2.0, accepted, polyline((0.5, 0.5), (1.95, 0.5)), 0.4) == 9


def test_negative_coordinates():
    accepted = [(polyline((-3.1, -2.05), (-2.2, -2.05)), 6)]
    assert first_collision(1.0, accepted, polyline((-3.0, -1.8), (-2.0, -1.8)), 0.4) == 6
    assert first_collision(1.0, accepted, polyline((-3.0, -1.5), (-2.0, -1.5)), 0.4) is None


def test_zero_length_segments():
    accepted = [(polyline((1, 1), (1, 1), (1.2, 1)), 8)]
    assert first_collision(1.0, accepted, polyline((1, 1.3), (1, 1.3)), 0.4) == 8
    assert first_collision(1.0, accepted, polyline((1, 1.5), (1, 1.5)), 0.4) is None


def test_segments_spanning_many_cells():
    accepted = [(polyline((-7, -5, 0), (9, 6, 1)), 1), (polyline((-6, 5), (8, -4)), 2)]
    query = polyline((10, 10), (-10, -10.3))  # 0.415 from owner 1, crossing owner 2
    assert first_collision(0.7, accepted, query, 0.5) == 2
    assert first_collision(0.7, accepted[:1], query, 0.5) == 1
    assert first_collision(0.7, accepted[:1], query, 0.4) is None
    assert first_collision(0.7, accepted, polyline((-9, 9), (-8, 8)), 0.4) is None


def test_segment_distance_rows_do_not_depend_on_the_batch():
    # first_collision gathers one query row per candidate; the former grid
    # broadcast each query segment against its own candidates
    rng = np.random.default_rng(11)
    q1, q2 = rng.normal(size=(2, 60, 3)) * 5.0
    q2[::7] = q1[::7]  # zero-length queries
    p1, p2 = rng.normal(size=(2, 400, 3)) * 5.0
    p2[::9] = p1[::9]  # zero-length candidates
    p2[1::9] = p1[1::9] + (q2[0] - q1[0])  # parallel to query 0
    rows, cols = np.divmod(np.arange(60 * 400), 400)
    gathered = segment_pair_distance(q1[rows], q2[rows], p1[cols], p2[cols]).reshape(60, 400)
    for i in range(60):
        sub = rng.permutation(400)[: rng.integers(1, 400)]
        broadcast = segment_pair_distance(
            np.broadcast_to(q1[i], (len(sub), 3)), np.broadcast_to(q2[i], (len(sub), 3)), p1[sub], p2[sub]
        )
        assert np.array_equal(gathered[i, sub], broadcast)


HOSTS = {
    "plane": hg.PlaneHost(hg.vec3(0.5, -1.0, 2.0), hg.vec3(0.0, 0.6, 0.8)),
    "sphere": hg.SphereHost(hg.vec3(0, 0, -200), 200.0),
    "sphere-inside": hg.SphereHost(hg.vec3(0, 0, 150), 160.0, viewer_inside=True),
}
VIEWS = {
    "infinity": hg.InfinityView(-math.pi / 4, math.pi / 4),
    "orbit": hg.OrbitView(hg.vec3(0, 0, 0), 500.0, 0.1, -math.pi / 6, math.pi / 6),
}


@pytest.mark.parametrize("view", sorted(VIEWS))
@pytest.mark.parametrize("host", sorted(HOSTS))
def test_vertical_gap_rows_do_not_depend_on_the_batch(host, view):
    # make_striping evaluates every toolpath's gaps in one batch; each path's
    # rows must equal its own call, misses (NaN) included
    host, view = HOSTS[host], VIEWS[view]
    rng = np.random.default_rng(5)
    ps = np.column_stack([rng.uniform(-40, 40, 30), rng.uniform(-30, 30, 30), rng.uniform(-15, 15, 30)])
    lens = rng.integers(1, 60, len(ps))
    thetas = [np.sort(rng.uniform(-0.9, 0.9, n)) for n in lens]
    positions = [p + rng.normal(size=(n, 3)) for p, n in zip(ps, lens)]
    every = np.concatenate(thetas)
    q, why = sightline_host_intersections(view.eyes_at(every), np.repeat(ps, lens, axis=0), host)
    gaps = _vertical_gaps(host, view, np.repeat(ps, lens, axis=0), every, np.concatenate(positions))
    at = np.cumsum(lens)[:-1]
    for p, t, pos, q_p, why_p, gap in zip(
        ps, thetas, positions, np.split(q, at), np.split(why, at), np.split(gaps, at)
    ):
        q_one, why_one = sightline_host_intersections(view.eyes_at(t), p, host)
        np.testing.assert_array_equal(q_p, q_one)
        assert why_p.tolist() == why_one.tolist()
        np.testing.assert_array_equal(gap, _vertical_gaps(host, view, p, t, pos))


def crowded_flat_stipples(n=320):
    rng = np.random.default_rng(320)
    stipples = []
    for idx in range(n):
        p = hg.vec3(rng.uniform(-60, 60), rng.uniform(-40, 40), -rng.uniform(4, 15))
        center = math.radians(rng.uniform(-25, 25))
        half = math.radians(rng.uniform(4, 12))
        stipples.append(
            hg.Stipple(
                p,
                weight=float(rng.uniform(0.5, 1.0)),
                window=(center - half, center + half),
                priority=int(rng.integers(0, 3)),
                stipple_id=idx,
            )
        )
    return stipples


# sha256 of every accepted arc (stipple id and array bytes) and the rejection
# list, taken with the list-and-dict grid; 21 of the 320 stipples overlap
CROWDED_FLAT = "8a8ed4e17ac52f4af871972a4f98e85301bfa73178296261f11e468f87b39bbe"


def test_crowded_flat_striping_keeps_its_arcs_and_rejections():
    fab = hg.FabricationParams(delta=1.0, tool_radius=0.2)
    striping = hg.make_striping(
        crowded_flat_stipples(),
        hg.DirectionalLight(math.radians(30)),
        hg.PlaneHost(),
        hg.InfinityView(-math.pi / 4, math.pi / 4),
        fab,
        step=math.radians(0.25),
    )
    assert sum(why.startswith("overlaps accepted stipple") for _, why in striping.rejected) == 21
    digest = hashlib.sha256()
    for arc in striping.arcs:
        digest.update(np.int64(arc.stipple.stipple_id).tobytes())
        for f in ("thetas", "positions", "t1", "axes"):
            digest.update(getattr(arc.toolpath, f).tobytes())
    digest.update(repr([(s.stipple_id, why) for s, why in striping.rejected]).encode())
    assert digest.hexdigest() == CROWDED_FLAT
