"""Arc placement: the near-pair join and its greedy verdicts answer every
query as the two segment grids they replaced (the list-and-dict grid and the
sorted-cell-table grid), segment distances and vertical gaps do not depend on
their batch, and a crowded 320-stipple striping keeps its pinned arcs and
rejections."""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hologlint as hg
from hologlint import striping
from hologlint.geom import sightline_host_intersections
from hologlint.striping import _near_pairs, _overlap, _vertical_gaps, segment_pair_distance


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
    """(N, 3) samples of an arc from points given as (x, y) or (x, y, z)."""
    return np.array([(*p, 0.0)[:3] for p in points], dtype=float)


def segments(pts):
    """The (N - 1, 2, 3) segments joining consecutive samples: what the grids hold."""
    return np.stack([pts[:-1], pts[1:]], axis=1)


class ArraySegmentGrid:
    """The former ``_SegmentGrid``, its code verbatim: accepted segments in arrays, with a cell table
    sorted by (cell key, row) that every insert merges into with ``np.insert``."""

    def __init__(self, cell: float):
        self.cell, self.m = cell, 0
        self.p1, self.p2, self.owner = np.empty((0, 3)), np.empty((0, 3)), np.empty(0, dtype=int)
        self.keys, self.rows = np.empty(0, dtype=np.int64), np.empty(0, dtype=int)

    def _cells(self, segs: np.ndarray, pad: float) -> tuple[np.ndarray, np.ndarray]:
        lo = np.floor((np.minimum(segs[:, 0], segs[:, 1])[:, :2] - pad) / self.cell).astype(np.int64)
        hi = np.floor((np.maximum(segs[:, 0], segs[:, 1])[:, :2] + pad) / self.cell).astype(np.int64)
        span = hi - lo + 1
        count = span[:, 0] * span[:, 1]
        seg = np.repeat(np.arange(len(segs)), count)
        k = np.arange(len(seg)) - np.repeat(np.cumsum(count) - count, count)  # cell number within the box
        i, j = lo[seg, 0] + k // span[seg, 1], lo[seg, 1] + k % span[seg, 1]
        return (i << 32) + j, seg

    def insert(self, segs: np.ndarray, owner: int):
        m, self.m = self.m, self.m + len(segs)
        if self.m > len(self.owner):  # double the buffers
            cap = max(self.m, 2 * len(self.owner))
            self.p1, self.p2 = np.resize(self.p1, (cap, 3)), np.resize(self.p2, (cap, 3))
            self.owner = np.resize(self.owner, cap)
        self.p1[m : self.m], self.p2[m : self.m], self.owner[m : self.m] = segs[:, 0], segs[:, 1], owner
        keys, seg = self._cells(segs, 0.0)
        order = np.argsort(keys, kind="stable")  # by key, then row: the new rows follow every old one
        at = np.searchsorted(self.keys, keys[order], side="right")
        self.keys, self.rows = np.insert(self.keys, at, keys[order]), np.insert(self.rows, at, m + seg[order])

    def first_collision(self, segs: np.ndarray, clearance: float):
        keys, seg = self._cells(segs, clearance)
        lo = np.searchsorted(self.keys, keys, side="left")
        n = np.searchsorted(self.keys, keys, side="right") - lo
        if not n.any():
            return None
        at = np.repeat(lo - (np.cumsum(n) - n), n) + np.arange(n.sum())
        q, idx = np.divmod(np.unique(np.repeat(seg, n) * self.m + self.rows[at]), self.m)  # by seg, then row
        d = segment_pair_distance(segs[q, 0], segs[q, 1], self.p1[idx], self.p2[idx])
        hit = np.flatnonzero(d < clearance - 1e-12)
        if not hit.size:
            return None
        first = q == q[hit[0]]
        return int(self.owner[idx[first][np.argmin(d[first])]])


def greedy(cell, clearance, arcs, force=()):
    """Each arc's answer in turn (the arc it overlaps, or None) from the near-pair join and its
    verdicts, after checking that both former grids give the same one; an arc joins the accepted
    when it overlaps none or its index is in ``force``.  Returns the answers and the accepted mask."""
    pairs = _near_pairs(arcs, cell, clearance)
    grids, accepted, got = (ArraySegmentGrid(cell), ListSegmentGrid(cell)), np.zeros(len(arcs), dtype=bool), []
    for k, pts in enumerate(arcs):
        got.append(_overlap(pairs, k, accepted))
        assert [grid.first_collision(segments(pts), clearance) for grid in grids] == [got[-1]] * 2
        accepted[k] = got[-1] is None or k in force  # forced arcs crowd the table with overlapping owners
        if accepted[k]:
            for grid in grids:
                grid.insert(segments(pts), k)
    return got, accepted


def first_collision(cell, accepted, query, clearance):
    """The owner that ``query`` overlaps once the (samples, owner) pairs of ``accepted`` are
    placed (every one, overlapping or not), or None; all three placers must agree."""
    got, _ = greedy(cell, clearance, [pts for pts, _ in accepted] + [query], force=range(len(accepted)))
    return None if got[-1] is None else accepted[got[-1]][1]


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
    greedy(cell, clearance, [pts for pts, _ in arcs], force={k for k, (_, force) in enumerate(arcs) if force})


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


def random_walks(rng, count, spread, steps=(2, 12)):
    """``count`` arcs: random walks of 0.4-long xy steps (z jitter) from starts within ``spread``."""
    arcs = []
    for _ in range(count):
        heading = rng.uniform(0, 2 * np.pi) + np.cumsum(rng.normal(0, 0.4, rng.integers(*steps)))
        p = np.column_stack([0.4 * np.cos(heading), 0.4 * np.sin(heading), rng.normal(0, 0.05, len(heading))])
        arcs.append(polyline(*np.cumsum(np.vstack([rng.uniform(-spread, spread, 3) * [1, 1, 0], p]), axis=0)))
    return arcs


def brute_pairs(arcs, clearance):
    """Every (row, earlier arc's row, distance) closer than ``clearance - 1e-12``, by all-pairs distances."""
    segs = np.concatenate([segments(pts) for pts in arcs])
    owner = np.repeat(np.arange(len(arcs)), [len(a) - 1 for a in arcs])
    q, t = np.nonzero(owner[:, None] > owner[None, :])
    d = segment_pair_distance(segs[q, 0], segs[q, 1], segs[t, 0], segs[t, 1])
    near = d < clearance - 1e-12
    return q[near], t[near], d[near]


@pytest.mark.parametrize("seed", range(6))
def test_dense_walks_reject_as_the_grids_greedy_run(seed):
    rng = np.random.default_rng(seed)
    arcs = random_walks(rng, 40, 3.0)
    got, accepted = greedy(1.0, 0.4, arcs)
    assert (~accepted).sum() >= 20  # crowded: many rejections, each naming an accepted arc
    assert all(accepted[owner] for owner in got if owner is not None)
    bounds, q, owner, d = _near_pairs(arcs, 1.0, 0.4)
    bq, bt, bd = brute_pairs(arcs, 0.4)
    at = np.cumsum([0] + [len(a) - 1 for a in arcs])
    np.testing.assert_array_equal(q, bq)
    np.testing.assert_array_equal(owner, np.searchsorted(at, bt, side="right") - 1)
    np.testing.assert_array_equal(d, bd)
    np.testing.assert_array_equal(bounds, np.searchsorted(q, at))


@pytest.mark.parametrize("rows", [1, 3, 7])
def test_query_blocks_split_inside_an_arc(rows):
    # blocks of ``rows`` query segments end inside the arcs of 9-11 segments
    arcs = random_walks(np.random.default_rng(7), 12, 2.0, steps=(9, 12))
    want = _near_pairs(arcs, 0.8, 0.5)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(striping, "_PAIR_ROWS", rows)
        got = _near_pairs(arcs, 0.8, 0.5)
        assert (~greedy(0.8, 0.5, arcs)[1]).sum() >= 5
    for a, b in zip(got, want):
        np.testing.assert_array_equal(a, b)


def test_arcs_with_no_candidate_pair():
    # 10 units apart: no cell in common, even padded
    arcs = [polyline((10 * k, 0), (10 * k + 1, 1), (10 * k + 2, 0)) for k in range(5)]
    bounds, q, _, _ = _near_pairs(arcs, 1.0, 0.4)
    assert bounds.tolist() == [0] * 6 and not q.size
    assert greedy(1.0, 0.4, arcs)[0] == [None] * 5


def test_one_arc_overlaps_nothing():
    # the arc folds back onto itself: an arc's own segments are never a pair
    arc = polyline((0, 0), (1, 0), (1, 0.1), (0, 0.1))
    bounds, q, _, _ = _near_pairs([arc], 1.0, 0.4)
    assert bounds.tolist() == [0, 0] and not q.size
    assert greedy(1.0, 0.4, [arc])[0] == [None]


def test_segment_distance_rows_do_not_depend_on_the_batch():
    # the near-pair join gathers one query row per candidate; the list grid
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
# list, taken with the toolpaths anchored at theta_c; 21 of the 320 stipples overlap
CROWDED_FLAT = "bec6d850c8ac5188697a0d80280cea5de0d622dda8b633339a026c6e926d8a19"


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
