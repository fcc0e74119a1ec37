"""Differential tests of the exact k-NN kernel against the scan oracle.

Every tree k-NN seeds a radius with a best-first descent, range-collects
at it and ranks the candidates with
:func:`repro.core.verification.rank_nearest`. These properties compare
that kernel, both trees, the sharded plane and the live plane with
:func:`repro.query.scan_knn` — positions and distances bit for bit —
over generated series in every normalization regime, for ``k`` from 1
past the plane size, with exclusion zones that cover the seed leaf, the
whole plane, or all but one window, on a constant series (every
distance ties, so the position tie-break decides) and on empty planes.
"""

import concurrent.futures

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.normalization import Normalization
from repro.core.stats import QueryStats
from repro.core.tsindex import TSIndex, TSIndexParams
from repro.core.verification import outside_zone, rank_nearest
from repro.core.windows import WindowSource
from repro.engine import ShardedTSIndex
from repro.exceptions import InvalidParameterError
from repro.live import LiveTwinIndex
from repro.query import scan_knn
from repro.query.spec import prepare_values

LENGTH = 12
#: Small fan-out so even a few hundred windows make a multi-level tree.
PARAMS = TSIndexParams(min_children=2, max_children=4)
REGIMES = list(Normalization)


def assert_same(got, want, context=None):
    assert got.positions.dtype == want.positions.dtype, context
    assert np.array_equal(got.positions, want.positions), context
    assert np.array_equal(got.distances, want.distances), context
    assert got.stats.matches == len(want), context


def planes(values, regime):
    """Every plane under test over ``values``, by name."""
    tree = TSIndex.build(values, LENGTH, normalization=regime, params=PARAMS)
    built = {
        "tsindex": tree,
        "frozen": tree.freeze(),
        "sharded": ShardedTSIndex.build(
            values,
            LENGTH,
            normalization=regime,
            shards=min(3, values.size - LENGTH + 1),
            params=PARAMS,
        ),
    }
    if regime is not Normalization.GLOBAL:
        built["live"] = LiveTwinIndex(
            values,
            length=LENGTH,
            normalization=regime,
            params=PARAMS,
            seal_threshold=40,
            max_segments=2,
            background_compaction=False,
        )
    return built


def seed_leaf_zone(frozen, query):
    """A zone covering the first leaf the frozen tree's descent reaches."""
    prepared = prepare_values(frozen.source, query)
    leaf = next(frozen._leaves_best_first(prepared, QueryStats()))
    return (int(leaf.min()), int(leaf.max()) + 1)


@st.composite
def cases(draw):
    size = draw(st.integers(min_value=LENGTH, max_value=260))
    seed = draw(st.integers(min_value=0, max_value=2**16))
    regime = draw(st.sampled_from(REGIMES))
    rng = np.random.default_rng(seed)
    values = np.cumsum(rng.normal(size=size))
    position = draw(st.integers(min_value=0, max_value=size - LENGTH))
    noise = draw(st.sampled_from([0.0, 0.05]))
    query = values[position:position + LENGTH] + noise * rng.normal(size=LENGTH)
    return values, regime, query


class TestKernelAgainstScan:
    @settings(max_examples=30, deadline=None)
    @given(cases())
    def test_every_plane_every_k_every_zone(self, case):
        values, regime, query = case
        built = planes(values, regime)
        count = built["tsindex"].size
        zones = [
            None,
            seed_leaf_zone(built["frozen"], query),
            (0, count),
            (1, count),
        ]
        for k in (1, 5, count, count + 5):
            for zone in zones:
                want = scan_knn(built["tsindex"].source, query, k, exclude=zone)
                for name, plane in built.items():
                    got = plane.knn(query, k, exclude=zone)
                    assert_same(got, want, (name, k, zone))

    @settings(max_examples=30, deadline=None)
    @given(cases(), st.integers(min_value=1, max_value=40))
    def test_rank_nearest_alone(self, case, k):
        values, regime, query = case
        source = WindowSource(values, LENGTH, regime)
        prepared = prepare_values(source, query)
        positions = np.random.default_rng(k).permutation(source.count)
        for zone in (None, (3, 17)):
            want = scan_knn(source, query, k, exclude=zone)
            got = rank_nearest(
                source, prepared, outside_zone(positions, zone), k
            )
            assert_same(got, want)
            assert got.stats.verified <= got.stats.candidates

    def test_thread_executor_matches_oracle(self):
        values = np.cumsum(np.random.default_rng(3).normal(size=400))
        sharded = ShardedTSIndex.build(
            values, LENGTH, normalization="global", shards=4, params=PARAMS
        )
        query = values[123:123 + LENGTH]
        want = scan_knn(sharded.source, query, 7, exclude=(100, 150))
        with concurrent.futures.ThreadPoolExecutor(2) as pool:
            got = sharded.knn(query, 7, exclude=(100, 150), executor=pool)
        assert_same(got, want)


class TestTiesAndEmptyPlanes:
    @pytest.mark.parametrize("regime", REGIMES, ids=[r.value for r in REGIMES])
    def test_constant_series_ties_go_to_smallest_positions(self, regime):
        built = planes(np.full(150, 2.5), regime)
        query = np.array(built["tsindex"].source.window(0))
        for name, plane in built.items():
            for k in (1, 5, 200):
                for zone in (None, (0, 30)):
                    want = scan_knn(plane.source, query, k, exclude=zone)
                    got = plane.knn(query, k, exclude=zone)
                    assert_same(got, want, (name, k, zone))
                    assert np.all(got.distances == 0.0), name

    def test_empty_trees(self):
        source = WindowSource(np.arange(30.0), LENGTH, "none")
        empty = TSIndex(source, PARAMS)
        for plane in (empty, empty.freeze()):
            result = plane.knn(np.zeros(LENGTH), 3)
            assert len(result) == 0
            assert result.positions.dtype == np.int64

    def test_live_plane_before_first_window(self):
        live = LiveTwinIndex(length=LENGTH, background_compaction=False)
        assert len(live.knn(np.zeros(LENGTH), 3)) == 0


class TestExcludeValidation:
    def test_scan_knn_rejects_reversed_zone(self, source_global, query_of):
        with pytest.raises(InvalidParameterError):
            scan_knn(source_global, query_of(500), 3, exclude=(500, 400))

    def test_scan_knn_rejects_malformed_zone(self, source_global, query_of):
        with pytest.raises(InvalidParameterError):
            scan_knn(source_global, query_of(500), 3, exclude=(500,))

    @pytest.mark.parametrize("k", [0, -3, 2.5])
    def test_scan_knn_rejects_non_positive_k(self, source_global, query_of, k):
        # A negative k used to slice the ranking from the end and return
        # all but |k| windows.
        with pytest.raises(InvalidParameterError):
            scan_knn(source_global, query_of(500), k)

    def test_every_plane_rejects_reversed_zone(self, source_global, query_of):
        tree = TSIndex.from_source(source_global, params=PARAMS)
        for plane in (tree, tree.freeze()):
            with pytest.raises(InvalidParameterError):
                plane.knn(query_of(500), 3, exclude=(500, 400))


class TestFrozenKnnCounters:
    def test_prunes_nodes(self, tsindex_global, query_of):
        # The frozen twin of test_knn.py's efficiency check: a k = 1
        # query taken from the series verifies no more windows than it
        # collects, and collects fewer than the plane holds.
        frozen = tsindex_global.freeze()
        result = frozen.knn(query_of(321), 1)
        assert result.positions.tolist() == [321]
        stats = result.stats
        assert stats.verified <= stats.candidates < frozen.size
