"""Tests for the verification strategies (Section 3.2).

The central property: all strategies return identical results for any
candidate set, threshold and regime.
"""

import numpy as np
import pytest

from repro.core.stats import QueryStats
from repro.core.verification import (
    PROBE_COLUMNS,
    VERIFICATION_MODES,
    verify,
    verify_intervals,
    verify_positions,
    verify_positions_blocked,
    verify_positions_per_candidate,
)
from repro.exceptions import InvalidParameterError
from repro.query.varlength import prefix_source

from conftest import LENGTH


@pytest.fixture()
def ground_truth(source_global, query_of):
    """Naive twin positions for a fixed query/epsilon."""
    query = query_of(100)
    epsilon = 0.6
    expected = []
    for p in range(source_global.count):
        if np.max(np.abs(source_global.window(p) - query)) <= epsilon:
            expected.append(p)
    return query, epsilon, expected


ALL_POSITIONS = "all"


def _run(strategy, source, query, positions, epsilon):
    if strategy == "intervals":
        return verify_intervals(source, query, [(0, source.count)], epsilon)
    if positions is ALL_POSITIONS:
        positions = np.arange(source.count)
    if strategy == "bulk":
        return verify_positions(source, query, positions, epsilon)
    if strategy == "blocked":
        return verify_positions_blocked(source, query, positions, epsilon)
    return verify_positions_per_candidate(source, query, positions, epsilon)


class TestStrategiesAgree:
    @pytest.mark.parametrize(
        "strategy", ["bulk", "blocked", "per_candidate", "intervals"]
    )
    def test_full_scan_matches_naive(self, source_global, ground_truth, strategy):
        query, epsilon, expected = ground_truth
        result = _run(strategy, source_global, query, ALL_POSITIONS, epsilon)
        assert result.positions.tolist() == expected

    @pytest.mark.parametrize("strategy", ["bulk", "blocked", "per_candidate"])
    def test_subset_of_positions(self, source_global, ground_truth, strategy):
        query, epsilon, expected = ground_truth
        subset = np.arange(0, source_global.count, 3)
        result = _run(strategy, source_global, query, subset, epsilon)
        assert result.positions.tolist() == [p for p in expected if p % 3 == 0]

    @pytest.mark.parametrize("strategy", ["bulk", "blocked", "per_candidate"])
    def test_empty_candidates(self, source_global, ground_truth, strategy):
        query, epsilon, _ = ground_truth
        result = _run(strategy, source_global, query, np.array([], dtype=int), epsilon)
        assert len(result) == 0
        assert vars(result.stats) == vars(QueryStats())

    def test_all_regimes_agree_across_strategies(self, source_of):
        for regime in ("none", "global", "per_window"):
            source = source_of(regime)
            query = np.array(source.window_block(42, 43)[0])
            epsilon = 0.5 if regime != "none" else 0.5 * source.series.std()
            reference = verify_positions(
                source, query, np.arange(source.count), epsilon
            )
            for strategy in ("blocked", "per_candidate"):
                other = _run(strategy, source, query, ALL_POSITIONS, epsilon)
                assert np.array_equal(other.positions, reference.positions)
                assert np.allclose(other.distances, reference.distances)


class TestDistances:
    def test_reported_distances_are_exact(self, source_global, ground_truth):
        query, epsilon, _ = ground_truth
        result = verify_positions(
            source_global, query, np.arange(source_global.count), epsilon
        )
        for position, distance in result:
            window = source_global.window(int(position))
            assert np.isclose(distance, np.max(np.abs(window - query)))

    def test_all_distances_within_epsilon(self, source_global, ground_truth):
        query, epsilon, _ = ground_truth
        result = verify_positions(
            source_global, query, np.arange(source_global.count), epsilon
        )
        assert np.all(result.distances <= epsilon)

    def test_positions_sorted(self, source_global, ground_truth):
        query, epsilon, _ = ground_truth
        shuffled = np.random.default_rng(0).permutation(source_global.count)
        result = verify_positions(source_global, query, shuffled, epsilon)
        assert np.all(np.diff(result.positions) > 0)


class TestStats:
    def test_candidate_counting(self, source_global, ground_truth):
        query, epsilon, expected = ground_truth
        stats = QueryStats()
        result = verify_positions(
            source_global,
            query,
            np.arange(source_global.count),
            epsilon,
            stats=stats,
        )
        assert stats.candidates == source_global.count
        assert stats.verified == source_global.count
        assert stats.matches == len(expected)
        assert result.stats is stats

    def test_interval_stats(self, source_global, ground_truth):
        query, epsilon, expected = ground_truth
        stats = QueryStats()
        verify_intervals(
            source_global, query, [(0, 10), (20, 30)], epsilon, stats=stats
        )
        assert stats.candidates == 20

    def test_filter_ratio(self):
        stats = QueryStats(candidates=25)
        assert stats.filter_ratio(100) == 0.25
        assert stats.filter_ratio(0) == 0.0

    def test_merge(self):
        merged = QueryStats(candidates=1, matches=1).merge(
            QueryStats(candidates=2, nodes_pruned=3)
        )
        assert merged.candidates == 3
        assert merged.matches == 1
        assert merged.nodes_pruned == 3


class TestDispatch:
    def test_verify_dispatch_modes(self, source_global, ground_truth):
        query, epsilon, expected = ground_truth
        for mode in VERIFICATION_MODES:
            result = verify(
                source_global,
                query,
                np.arange(source_global.count),
                epsilon,
                mode=mode,
            )
            assert result.positions.tolist() == expected

    def test_unknown_mode(self, source_global, ground_truth):
        query, epsilon, _ = ground_truth
        with pytest.raises(InvalidParameterError, match="verification mode"):
            verify(source_global, query, [0], epsilon, mode="turbo")

    def test_negative_epsilon_rejected(self, source_global, ground_truth):
        query, _, _ = ground_truth
        with pytest.raises(InvalidParameterError):
            verify_positions(source_global, query, [0], -1.0)

    def test_blocked_various_block_sizes(self, source_global, ground_truth):
        query, epsilon, expected = ground_truth
        for block_size in (1, 3, LENGTH, 2 * LENGTH):
            result = verify_positions_blocked(
                source_global,
                query,
                np.arange(source_global.count),
                epsilon,
                block_size=block_size,
            )
            assert result.positions.tolist() == expected

    def test_small_chunks(self, source_global, ground_truth):
        query, epsilon, expected = ground_truth
        result = verify_positions(
            source_global,
            query,
            np.arange(source_global.count),
            epsilon,
            chunk_size=7,
        )
        assert result.positions.tolist() == expected


REGIMES = ("none", "global", "per_window")
VARIANTS = ("full", "shard", "detach")


def _variant(source, variant):
    """The source itself, or a shard / detached copy of its middle."""
    if variant == "shard":
        return source.shard(300, source.count - 200)
    if variant == "detach":
        return source.detach(300, source.count - 200)
    return source


def _epsilon(source, fraction):
    """An ``ε`` on the scale of the source's value domain."""
    return fraction * float(np.std(source.values))


def _assert_identical(result, reference):
    assert np.array_equal(result.positions, reference.positions)
    assert result.distances.tobytes() == reference.distances.tobytes()
    assert vars(result.stats) == vars(reference.stats)


def _assert_kernels_match_reference(source, query, positions, epsilon, **kw):
    """Bulk (two-pass) and blocked verification equal the per-candidate
    loop byte for byte: positions, distances and counters."""
    reference = verify_positions_per_candidate(
        source, query, positions, epsilon, stats=QueryStats()
    )
    for kernel in (verify_positions, verify_positions_blocked):
        result = kernel(
            source, query, positions, epsilon, stats=QueryStats(), **kw
        )
        _assert_identical(result, reference)
    return reference


class TestTwoPassKernel:
    @pytest.mark.parametrize("regime", REGIMES)
    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("fraction", [0.0, 0.2, 0.6])
    def test_matches_per_candidate(self, source_of, regime, variant, fraction):
        source = _variant(source_of(regime), variant)
        rng = np.random.default_rng(7)
        at = source.count // 3
        query = source.prepare_query(source.window(at))
        positions = np.append(rng.permutation(source.count)[: source.count // 2], at)
        positions = np.unique(positions)[::-1]
        reference = _assert_kernels_match_reference(
            source, query, positions, _epsilon(source, fraction)
        )
        assert at in reference.positions

    @pytest.mark.parametrize("regime", REGIMES)
    def test_every_candidate_reaches_pass_two(self, source_of, regime):
        source = source_of(regime)
        query = source.prepare_query(source.window(10))
        positions = np.arange(0, source.count, 2)
        reference = _assert_kernels_match_reference(
            source, query, positions, 1e9
        )
        assert np.array_equal(reference.positions, positions)

    def test_epsilon_zero_keeps_the_exact_match(self, source_global, query_of):
        positions = np.arange(source_global.count)
        reference = _assert_kernels_match_reference(
            source_global, query_of(100), positions, 0.0
        )
        assert 100 in reference.positions
        assert np.all(reference.distances == 0.0)

    @pytest.mark.parametrize("regime", ["none", "global"])
    def test_prefix_source_with_tail_positions(self, source_of, regime):
        source = source_of(regime)
        m = LENGTH // 2
        psource = prefix_source(source, m)
        query = np.array(psource.window(500))
        tail = np.arange(source.count, psource.count)
        assert tail.size == LENGTH - m
        positions = np.concatenate(
            (tail, np.random.default_rng(3).permutation(source.count)[:900])
        )
        reference = _assert_kernels_match_reference(
            psource, query, positions, _epsilon(source, 0.6)
        )
        everything = _assert_kernels_match_reference(
            psource, query, tail, 1e9
        )
        assert np.array_equal(everything.positions, tail)
        assert reference.stats.candidates == positions.size

    @pytest.mark.parametrize("regime", REGIMES)
    def test_unsorted_positions_small_chunks(self, source_of, regime):
        source = source_of(regime)
        query = source.prepare_query(source.window(1234))
        positions = np.random.default_rng(11).permutation(source.count)
        _assert_kernels_match_reference(
            source, query, positions, _epsilon(source, 0.6), chunk_size=7
        )

    @pytest.mark.parametrize("regime", REGIMES)
    @pytest.mark.parametrize("length", [4, PROBE_COLUMNS, PROBE_COLUMNS + 1])
    def test_short_windows(self, source_of, regime, length):
        # At length <= PROBE_COLUMNS the first pass reads the whole
        # window and the second pass is empty.
        source = source_of(regime, length)
        query = source.prepare_query(source.window(77))
        positions = np.arange(source.count)
        for fraction in (0.0, 0.3, 2.0):
            _assert_kernels_match_reference(
                source, query, positions, _epsilon(source, fraction)
            )

    @pytest.mark.parametrize(
        "strategy", [verify_positions, verify_positions_blocked]
    )
    @pytest.mark.parametrize("bad", [-1, "count"])
    def test_out_of_range_positions_raise(
        self, source_global, query_of, strategy, bad
    ):
        bad = source_global.count if bad == "count" else bad
        with pytest.raises(InvalidParameterError, match="positions must lie"):
            strategy(source_global, query_of(5), [3, bad, 9], 1e9)


class TestWindowColumns:
    @pytest.mark.parametrize("regime", REGIMES)
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_equals_full_window_gather(self, source_of, regime, variant):
        source = _variant(source_of(regime), variant)
        rng = np.random.default_rng(5)
        positions = rng.integers(0, source.count, 200)
        full = source.windows(positions)
        for columns in (
            np.arange(LENGTH),
            rng.permutation(LENGTH)[:PROBE_COLUMNS],
            np.array([LENGTH - 1, 0, 0, 17]),
            np.array([], dtype=int),
        ):
            gathered = source.window_columns(positions, columns)
            assert gathered.shape == (positions.size, columns.size)
            assert gathered.dtype == full.dtype
            assert gathered.tobytes() == full[:, columns].tobytes()

    @pytest.mark.parametrize("regime", REGIMES)
    def test_per_window_columns(self, source_of, regime):
        source = source_of(regime)
        rng = np.random.default_rng(6)
        positions = rng.integers(0, source.count, 50)
        columns = rng.integers(0, LENGTH, (50, PROBE_COLUMNS))
        expected = np.take_along_axis(source.windows(positions), columns, axis=1)
        assert (
            source.window_columns(positions, columns).tobytes()
            == expected.tobytes()
        )

    def test_fresh_writable_array(self, source_global):
        gathered = source_global.window_columns([0, 1], [0, 1])
        assert gathered.flags.writeable
        assert not np.shares_memory(gathered, source_global.values)

    def test_empty_positions(self, source_global):
        assert source_global.window_columns([], [0, 3]).shape == (0, 2)

    @pytest.mark.parametrize("bad", [-1, "count"])
    def test_out_of_range_positions_raise(self, source_global, bad):
        bad = source_global.count if bad == "count" else bad
        with pytest.raises(InvalidParameterError, match="positions must lie"):
            source_global.window_columns([0, bad], [0])

    @pytest.mark.parametrize("bad", [-1, LENGTH])
    def test_out_of_range_columns_raise(self, source_global, bad):
        with pytest.raises(InvalidParameterError, match="columns must lie"):
            source_global.window_columns([0, 1], [0, bad])
