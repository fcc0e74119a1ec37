"""The verification step of the filter-verification framework (§3.2).

Every index produces *candidate* window positions; verification computes
the exact Chebyshev distance of each candidate to the query and keeps the
twins. Four interchangeable strategies are provided:

* :func:`verify_positions` — the library default (``bulk``): a
  two-pass form of the UCR-suite *reordering early abandoning* the
  paper adopts. Query timestamps are ordered by decreasing magnitude;
  the first pass gathers the :data:`PROBE_COLUMNS` leading columns of
  every candidate and drops those already farther than ``ε``, the
  second gathers the remaining ``l - PROBE_COLUMNS`` columns for the
  survivors only, so the running maximum is the exact distance. Both
  passes read cells with :meth:`WindowSource.window_columns`, never a
  full-window copy of a candidate that the first pass rejects. Every
  frozen, sharded, live and variable-length search verifies here.
* :func:`verify_positions_blocked` — the same early abandoning in
  ``block_size``-column blocks, gathering each block for the current
  survivors only.
* :func:`verify_intervals` — verifies contiguous position runs directly
  against zero-copy window blocks (used by KV-Index and the sweepline
  scan, whose candidates are intervals); it copies nothing, so it keeps
  a one-pass reduction.
* :func:`verify_positions_per_candidate` — one window at a time, the
  paper's cost model and the reference the others are tested against.

All strategies return identical results — positions, distances (bit for
bit: a maximum does not depend on the order its terms are visited) and
counters; tests enforce this.

Both trees' k-NN finish here: :func:`seeded_knn` turns the first
windows a best-first descent reaches into a radius τ, and
:func:`rank_nearest` verifies the range candidates at τ in ascending
order of their probe-column lower bound.
"""

from __future__ import annotations

from typing import Callable, Iterable

import numpy as np
import numpy.typing as npt

from .._util import (
    FLOAT_DTYPE,
    POSITION_DTYPE,
    as_position_array,
    check_non_negative,
    check_positive_int,
    iter_chunks,
)
from .distance import reorder_by_magnitude
from .stats import QueryStats, SearchResult
from .windows import WindowSource

#: Number of candidate windows verified per NumPy batch. Bounds peak
#: memory at roughly ``chunk * l * 8`` bytes per temporary.
DEFAULT_CHUNK = 4096

#: Timestamp block width for blocked early abandoning.
DEFAULT_BLOCK = 16

#: Columns (the largest-``|query|`` timestamps) that the first pass of
#: :func:`verify_positions` gathers for every candidate; only the
#: candidates within ``ε`` on all of them get their other columns read.
PROBE_COLUMNS = 8

#: Candidates :func:`rank_nearest` verifies between two tightenings of
#: its radius τ to the running k-th best distance.
RANK_CHUNK = 64

#: Verification strategies accepted by every method's ``search``:
#: ``bulk`` — two-pass vectorized early abandoning (the library default);
#: ``blocked`` — vectorized blocked reordering early abandoning;
#: ``per_candidate`` — one check per candidate, the paper's cost model
#: (their data lived on disk and each candidate was fetched by random
#: access, so verification cost scaled with the candidate count; the
#: benchmark harness uses this mode to reproduce the paper's figures).
VERIFICATION_MODES = ("bulk", "blocked", "per_candidate")


def verify_positions(
    source: WindowSource,
    query: np.ndarray,
    positions: npt.ArrayLike,
    epsilon: float,
    *,
    stats: QueryStats | None = None,
    chunk_size: int = DEFAULT_CHUNK,
) -> SearchResult:
    """Exactly verify ``positions`` against ``query`` at threshold ``ε``.

    ``query`` must already be expressed in the source's value domain
    (callers use :meth:`WindowSource.prepare_query`). Returns a
    :class:`SearchResult` with positions sorted ascending.

    Two passes per chunk: the :data:`PROBE_COLUMNS` timestamps of
    largest ``|query|`` are gathered for every candidate, and only the
    candidates still within ``ε`` there have their remaining columns
    gathered; the running maximum is then the exact distance.
    """
    epsilon = check_non_negative(epsilon, name="epsilon")
    positions = np.sort(as_position_array(positions))
    stats = stats if stats is not None else QueryStats()
    stats.candidates += int(positions.size)
    stats.verified += int(positions.size)

    order = reorder_by_magnitude(query)
    probe, rest = order[:PROBE_COLUMNS], order[PROBE_COLUMNS:]
    matched_positions: list[np.ndarray] = []
    matched_distances: list[np.ndarray] = []
    for start, stop in iter_chunks(positions.size, chunk_size):
        alive = positions[start:stop]
        running = partial_distance(source, alive, probe, query[probe])
        keep = running <= epsilon
        alive, running = alive[keep], running[keep]
        if rest.size and alive.size:
            np.maximum(
                running,
                partial_distance(source, alive, rest, query[rest]),
                out=running,
            )
            keep = running <= epsilon
            alive, running = alive[keep], running[keep]
        if alive.size:
            matched_positions.append(alive)
            matched_distances.append(running)

    return _collect(matched_positions, matched_distances, stats)


def verify_positions_blocked(
    source: WindowSource,
    query: np.ndarray,
    positions: npt.ArrayLike,
    epsilon: float,
    *,
    stats: QueryStats | None = None,
    chunk_size: int = DEFAULT_CHUNK,
    block_size: int = DEFAULT_BLOCK,
) -> SearchResult:
    """Verification with blocked reordering early abandoning.

    Timestamps are visited in blocks sorted by decreasing query magnitude
    (see :func:`~repro.core.distance.reorder_by_magnitude`); after each
    block, candidates whose running maximum difference exceeds ``ε`` are
    discarded, so later blocks gather progressively fewer cells.
    """
    epsilon = check_non_negative(epsilon, name="epsilon")
    positions = np.sort(as_position_array(positions))
    stats = stats if stats is not None else QueryStats()
    stats.candidates += int(positions.size)
    stats.verified += int(positions.size)

    order = reorder_by_magnitude(query)
    matched_positions: list[np.ndarray] = []
    matched_distances: list[np.ndarray] = []
    for start, stop in iter_chunks(positions.size, chunk_size):
        alive = positions[start:stop]
        running = np.zeros(alive.size)
        for block_start, block_stop in iter_chunks(order.size, block_size):
            idx = order[block_start:block_stop]
            np.maximum(
                running, partial_distance(source, alive, idx, query[idx]), out=running
            )
            keep = running <= epsilon
            if not keep.all():
                alive = alive[keep]
                running = running[keep]
            if alive.size == 0:
                break
        if alive.size:
            matched_positions.append(alive)
            matched_distances.append(running)

    return _collect(matched_positions, matched_distances, stats)


def partial_distance(
    source: WindowSource,
    positions: np.ndarray,
    columns: np.ndarray,
    query_cells: np.ndarray,
) -> np.ndarray:
    """Chebyshev distance of each window at ``positions`` to the query,
    restricted to ``columns``: ``max |window[c] - query[c]|``.

    ``query_cells`` holds the query's values at ``columns``; both may
    be ``(k, c)`` arrays giving each window its own columns (see
    :meth:`WindowSource.window_columns`). A lower bound on the full
    distance, and equal to it bit for bit once ``columns`` covers the
    window.
    """
    block = source.window_columns(positions, columns)
    np.subtract(block, query_cells, out=block)
    np.abs(block, out=block)
    return block.max(axis=1)


def rank_nearest(
    source: WindowSource,
    query: np.ndarray,
    positions: npt.ArrayLike,
    k: int,
    *,
    seed: tuple[np.ndarray, np.ndarray] | None = None,
    stats: QueryStats | None = None,
) -> SearchResult:
    """The ``k`` windows of ``positions`` nearest to ``query``, ranked
    by ``(distance, position)`` exactly as :func:`repro.query.scan_knn`.

    ``seed`` holds windows already verified, ``(positions, distances)``:
    they compete without being verified again, and their k-th smallest
    distance is the first radius τ. The :data:`PROBE_COLUMNS`
    largest-``|query|`` cells of every other candidate lower-bound its
    distance; candidates are verified in ascending order of that bound,
    :data:`RANK_CHUNK` at a time with τ tightened to the running k-th
    best after each, until a bound exceeds τ (a bound equal to τ is
    still verified, so a tie at the k-th distance goes to the smaller
    position). Counts ``positions`` as candidates.
    """
    k = check_positive_int(k, name="k")
    positions = as_position_array(positions)
    stats = stats if stats is not None else QueryStats()
    stats.candidates += int(positions.size)
    best = (np.empty(0, dtype=POSITION_DTYPE), np.empty(0, dtype=FLOAT_DTYPE))
    if seed is not None:
        best = _top(*seed, k)
        positions = positions[np.isin(positions, seed[0], invert=True)]
    order = reorder_by_magnitude(query)
    probe, rest = order[:PROBE_COLUMNS], order[PROBE_COLUMNS:]
    bounds = np.concatenate([np.empty(0, dtype=FLOAT_DTYPE)] + [
        partial_distance(source, positions[start:stop], probe, query[probe])
        for start, stop in iter_chunks(positions.size, DEFAULT_CHUNK)
    ])
    tau = best[1][-1] if best[1].size == k else np.inf
    within = np.flatnonzero(bounds <= tau)
    ascending = within[np.argsort(bounds[within], kind="stable")]
    positions, bounds = positions[ascending], bounds[ascending]
    start = 0
    while True:
        stop = min(start + RANK_CHUNK, int(np.searchsorted(bounds, tau, "right")))
        if start >= stop:
            break
        alive, running = positions[start:stop], bounds[start:stop]
        if rest.size:
            running = np.maximum(
                running, partial_distance(source, alive, rest, query[rest])
            )
        stats.verified += int(alive.size)
        best = _top(
            np.concatenate((best[0], alive)),
            np.concatenate((best[1], running)),
            k,
        )
        if best[1].size == k:
            tau = best[1][-1]
        start = stop
    stats.matches += int(best[0].size)
    return SearchResult(positions=best[0], distances=best[1], stats=stats)


def seeded_knn(
    source: WindowSource,
    query: np.ndarray,
    k: int,
    leaves: Iterable[np.ndarray],
    collect: Callable[[float], np.ndarray],
    *,
    exclude: tuple[int, int] | None,
    stats: QueryStats,
) -> SearchResult:
    """A tree's exact k-NN, from its best-first ``leaves`` (positions,
    in ascending order of the leaves' Eq. 2 bound) and its range
    collector ``collect(τ)``.

    Leaves are taken until ``k`` windows outside the exclusion zone are
    seen; if the descent drains first, they are every admissible window
    and are simply ranked. Otherwise their k-th smallest distance τ
    bounds the answer, so by Lemma 1 every window of it survives
    ``collect(τ)``, and :func:`rank_nearest` ranks those outside the
    zone.
    """
    seen = [np.empty(0, dtype=POSITION_DTYPE)]
    count = 0
    for positions in leaves:
        seen.append(outside_zone(positions, exclude))
        count += seen[-1].size
        if count >= k:
            break
    seed = np.concatenate(seen)
    if seed.size < k:
        return rank_nearest(source, query, seed, k, stats=stats)
    distances = partial_distance(source, seed, np.arange(query.size), query)
    stats.verified += int(seed.size)
    tau = float(np.partition(distances, k - 1)[k - 1])
    candidates = outside_zone(collect(tau), exclude)
    return rank_nearest(
        source, query, candidates, k, seed=(seed, distances), stats=stats
    )


def outside_zone(
    positions: np.ndarray, exclude: tuple[int, int] | None
) -> np.ndarray:
    """``positions`` without those in the half-open exclusion zone."""
    if exclude is None:
        return positions
    return positions[(positions < exclude[0]) | (positions >= exclude[1])]


def _top(
    positions: np.ndarray, distances: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """The first ``k`` of ``(positions, distances)`` by ``(distance,
    position)``."""
    order = np.lexsort((positions, distances))[:k]
    return positions[order], distances[order]


def verify_intervals(
    source: WindowSource,
    query: np.ndarray,
    intervals: npt.ArrayLike,
    epsilon: float,
    *,
    stats: QueryStats | None = None,
    chunk_size: int = DEFAULT_CHUNK,
) -> SearchResult:
    """Verify half-open position runs ``[(start, stop), ...]``.

    Runs must be disjoint and sorted; window blocks are zero-copy views
    under the NONE/GLOBAL regimes, which makes this the cheapest path for
    interval-shaped candidate sets (KV-Index, sweepline).
    """
    epsilon = check_non_negative(epsilon, name="epsilon")
    stats = stats if stats is not None else QueryStats()

    matched_positions: list[np.ndarray] = []
    matched_distances: list[np.ndarray] = []
    for start, stop in intervals:
        run = stop - start
        stats.candidates += run
        stats.verified += run
        for offset, offset_stop in iter_chunks(run, chunk_size):
            lo = start + offset
            hi = start + offset_stop
            block = source.window_block(lo, hi)
            profile = np.max(np.abs(block - query), axis=1)
            keep = profile <= epsilon
            if np.any(keep):
                matched_positions.append(
                    np.arange(lo, hi, dtype=POSITION_DTYPE)[keep]
                )
                matched_distances.append(profile[keep])

    return _collect(matched_positions, matched_distances, stats)


def verify_positions_per_candidate(
    source: WindowSource,
    query: np.ndarray,
    positions: npt.ArrayLike,
    epsilon: float,
    *,
    stats: QueryStats | None = None,
) -> SearchResult:
    """Candidate-at-a-time verification (the paper's cost model).

    Every candidate window is fetched and checked individually, so the
    wall-clock cost is proportional to the number of candidates the
    filter step produced — mirroring the paper's setup where candidates
    were read from disk by random access one subsequence at a time.
    Results are identical to :func:`verify_positions`.
    """
    epsilon = check_non_negative(epsilon, name="epsilon")
    positions = np.sort(as_position_array(positions))
    stats = stats if stats is not None else QueryStats()
    stats.candidates += int(positions.size)
    stats.verified += int(positions.size)

    matched: list[int] = []
    distances: list[float] = []
    view = source
    for position in positions.tolist():
        window = view.window(position)
        distance = float(np.max(np.abs(window - query)))
        if distance <= epsilon:
            matched.append(position)
            distances.append(distance)
    stats.matches += len(matched)
    return SearchResult(
        positions=np.asarray(matched, dtype=POSITION_DTYPE),
        distances=np.asarray(distances, dtype=float),
        stats=stats,
    )


def verify(
    source: WindowSource,
    query: np.ndarray,
    positions: npt.ArrayLike,
    epsilon: float,
    *,
    mode: str = "bulk",
    stats: QueryStats | None = None,
) -> SearchResult:
    """Dispatch to the verification strategy named by ``mode``."""
    if mode == "bulk":
        return verify_positions(source, query, positions, epsilon, stats=stats)
    if mode == "blocked":
        return verify_positions_blocked(
            source, query, positions, epsilon, stats=stats
        )
    if mode == "per_candidate":
        return verify_positions_per_candidate(
            source, query, positions, epsilon, stats=stats
        )
    from ..exceptions import InvalidParameterError

    raise InvalidParameterError(
        f"unknown verification mode {mode!r}; expected one of "
        f"{VERIFICATION_MODES}"
    )


def _collect(
    matched_positions: list[np.ndarray],
    matched_distances: list[np.ndarray],
    stats: QueryStats,
) -> SearchResult:
    if not matched_positions:
        result = SearchResult.empty(stats)
        stats.matches += 0
        return result
    positions = np.concatenate(matched_positions)
    distances = np.concatenate(matched_distances)
    order = np.argsort(positions, kind="stable")
    stats.matches += int(positions.size)
    return SearchResult(
        positions=positions[order], distances=distances[order], stats=stats
    )
