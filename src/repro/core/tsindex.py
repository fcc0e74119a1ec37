"""TS-Index — the paper's contribution (Section 5).

A height-balanced tree over all ``l``-length windows of a time series.
Each node carries a Minimum Bounding Time Series (MBTS, Definition 2)
enclosing everything indexed beneath it; leaves store window start
positions. Construction is top-down sequential insertion (Section 5.2)
with R-tree style overflow splits whose seeds are the two farthest
entries (Chebyshev distance for leaves, Eq. 3 gap for internal nodes).
Twin queries traverse top-down, pruning any subtree whose MBTS is more
than ``ε`` away from the query (Lemma 1 / Algorithm 1).

Beyond the paper, this module adds an exact **k-NN twin search**
(`knn`) that uses the same Eq. 2 bound as a lower bound, and hooks for
bulk loading (see :mod:`repro.core.bulkload`).
"""

from __future__ import annotations

import dataclasses
import heapq
import itertools
import time
from typing import Any, Iterable, Iterator

import numpy as np
import numpy.typing as npt

from .._util import (
    FLOAT_DTYPE,
    POSITION_DTYPE,
    check_non_negative,
    check_positive_int,
)
from ..exceptions import InvalidParameterError
from ..query.capabilities import (
    CAP_COUNT,
    CAP_EXISTS,
    CAP_KNN,
    CAP_SEARCH,
    CAP_VARLENGTH,
    CAP_VERIFICATION,
)
from ..query.registration import register_plane
from ..query.spec import normalize_exclude, prepare_values
from ..query.varlength import (
    is_prefix_query,
    merge_exists_stats,
    prefix_search_with_tail,
)
from .mbts import MBTS
from .normalization import Normalization
from .stats import BuildStats, QueryStats, SearchResult
from .verification import seeded_knn, verify
from .windows import WindowSource

#: Valid split assignment metrics (DESIGN.md §5): ``area`` is classic
#: R-tree total enlargement, ``max`` is the Chebyshev-style maximum
#: single-timestamp enlargement.
SPLIT_METRICS = ("area", "max")


@dataclasses.dataclass(frozen=True)
class TSIndexParams:
    """Construction parameters for :class:`TSIndex`.

    Defaults are the paper's (Section 6.1): minimum node capacity
    ``μc = 10``, maximum node capacity ``Mc = 30``.
    """

    min_children: int = 10
    max_children: int = 30
    split_metric: str = "area"

    def __post_init__(self):
        check_positive_int(self.min_children, name="min_children")
        check_positive_int(self.max_children, name="max_children")
        if self.max_children < 2 * self.min_children:
            raise InvalidParameterError(
                "max_children must be >= 2 * min_children so both split "
                f"halves can satisfy the minimum (got μc={self.min_children}, "
                f"Mc={self.max_children})"
            )
        if self.split_metric not in SPLIT_METRICS:
            raise InvalidParameterError(
                f"split_metric must be one of {SPLIT_METRICS}, "
                f"got {self.split_metric!r}"
            )


class _Node:
    """One TS-Index node. Leaves hold positions; internals hold children."""

    __slots__ = ("mbts", "children", "positions", "_env_upper", "_env_lower")

    def __init__(self, mbts: MBTS, *, children=None, positions=None):
        self.mbts = mbts
        self.children: list[_Node] | None = children
        self.positions: list[int] | None = positions
        # Persistent stacked child-envelope matrices (rows mirror
        # ``children``'s MBTS) used to vectorize bound checks during both
        # insertion and queries. Maintained incrementally: rows are
        # refreshed after a child's envelope grows and appended when a
        # child is added; splits drop the matrices for a lazy rebuild.
        self._env_upper: np.ndarray | None = None
        self._env_lower: np.ndarray | None = None

    @property
    def is_leaf(self) -> bool:
        return self.positions is not None

    @property
    def fanout(self) -> int:
        return len(self.positions if self.is_leaf else self.children)

    def invalidate_cache(self) -> None:
        self._env_upper = None
        self._env_lower = None

    def child_envelopes(self) -> tuple[np.ndarray, np.ndarray]:
        """``(k, l)`` upper/lower matrix views over the children."""
        count = len(self.children)
        if self._env_upper is None or self._env_upper.shape[0] < count:
            length = self.mbts.length
            capacity = max(count + 1, 8)
            upper = np.empty((capacity, length), dtype=FLOAT_DTYPE)
            lower = np.empty((capacity, length), dtype=FLOAT_DTYPE)
            for row, child in enumerate(self.children):
                upper[row] = child.mbts.upper
                lower[row] = child.mbts.lower
            self._env_upper = upper
            self._env_lower = lower
        return self._env_upper[:count], self._env_lower[:count]

    def refresh_child_row(self, row: int) -> None:
        """Re-sync one row after the child's MBTS changed in place."""
        if self._env_upper is not None and row < self._env_upper.shape[0]:
            child = self.children[row]
            self._env_upper[row] = child.mbts.upper
            self._env_lower[row] = child.mbts.lower

    def append_child(self, child: "_Node") -> None:
        """Add a child, growing the envelope matrices if present."""
        self.children.append(child)
        if self._env_upper is None:
            return
        row = len(self.children) - 1
        if row >= self._env_upper.shape[0]:
            grown_upper = np.empty(
                (self._env_upper.shape[0] * 2, self._env_upper.shape[1]),
                dtype=FLOAT_DTYPE,
            )
            grown_lower = np.empty_like(grown_upper)
            grown_upper[:row] = self._env_upper[:row]
            grown_lower[:row] = self._env_lower[:row]
            self._env_upper = grown_upper
            self._env_lower = grown_lower
        self._env_upper[row] = child.mbts.upper
        self._env_lower[row] = child.mbts.lower


class TSIndex:
    """Tree index for twin subsequence search under Chebyshev distance.

    Build one with :meth:`TSIndex.build` (from raw values) or
    :meth:`TSIndex.from_source` (from a prepared
    :class:`~repro.core.windows.WindowSource`), then answer queries with
    :meth:`search` (threshold queries, Algorithm 1) or :meth:`knn`.

    Examples
    --------
    >>> import numpy as np
    >>> from repro.core import TSIndex
    >>> rng = np.random.default_rng(7)
    >>> series = np.cumsum(rng.normal(size=2000))
    >>> index = TSIndex.build(series, length=50, normalization="none")
    >>> result = index.search(series[100:150], epsilon=0.5)
    >>> 100 in result.positions
    True
    """

    method_name = "tsindex"

    #: Native kernels the query planner may call directly.
    capabilities = frozenset(
        {
            CAP_SEARCH,
            CAP_KNN,
            CAP_EXISTS,
            CAP_COUNT,
            CAP_VARLENGTH,
            CAP_VERIFICATION,
        }
    )

    def __init__(self, source: WindowSource, params: TSIndexParams | None = None):
        self._source = source
        self._params = params or TSIndexParams()
        self._root: _Node | None = None
        self._build_stats = BuildStats()

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        series: npt.ArrayLike,
        length: int,
        *,
        normalization: Normalization | str = Normalization.GLOBAL,
        params: TSIndexParams | None = None,
    ) -> "TSIndex":
        """Build a TS-Index over all ``length``-sized windows of
        ``series`` under the given normalization regime."""
        source = WindowSource(series, length, normalization)
        return cls.from_source(source, params=params)

    @classmethod
    def from_source(
        cls, source: WindowSource, *, params: TSIndexParams | None = None
    ) -> "TSIndex":
        """Build by sequentially inserting every window of ``source``."""
        index = cls(source, params)
        started = time.perf_counter()
        for position in range(source.count):
            index._insert_position(position)
        index._build_stats.seconds = time.perf_counter() - started
        index._build_stats.windows = source.count
        index._build_stats.height = index.height
        index._build_stats.nodes = index.node_count
        return index

    @classmethod
    def _from_prebuilt_root(
        cls,
        source: WindowSource,
        root: _Node,
        params: TSIndexParams,
        build_stats: BuildStats,
    ) -> "TSIndex":
        """Internal hook used by the bulk loader."""
        index = cls(source, params)
        index._root = root
        index._build_stats = build_stats
        return index

    def freeze(self) -> Any:
        """Snapshot this tree into a read-optimized
        :class:`~repro.core.frozen.FrozenTSIndex`.

        The frozen form answers ``search`` / ``knn`` / ``exists`` /
        ``search_batch`` over flat structure-of-arrays storage with
        vectorized frontier traversal — byte-identical results, a
        fraction of the latency. Freeze once the tree stops growing
        (the snapshot does not see later :meth:`insert` calls); thaw
        with :meth:`FrozenTSIndex.thaw
        <repro.core.frozen.FrozenTSIndex.thaw>` to resume insertion.
        """
        from .frozen import FrozenTSIndex  # local: frozen imports us

        return FrozenTSIndex.from_tree(
            self._source,
            self._root,
            self._params,
            # Copy: later inserts into this tree must not mutate the
            # snapshot's (or its serialized form's) build counters.
            dataclasses.replace(self._build_stats),
        )

    # ------------------------------------------------------------------
    # Metadata
    # ------------------------------------------------------------------
    @property
    def source(self) -> WindowSource:
        """The window source this index was built over."""
        return self._source

    @property
    def params(self) -> TSIndexParams:
        """Construction parameters."""
        return self._params

    @property
    def build_stats(self) -> BuildStats:
        """Counters recorded during construction."""
        return self._build_stats

    @property
    def length(self) -> int:
        """Indexed window length ``l``."""
        return self._source.length

    @property
    def size(self) -> int:
        """Number of indexed windows."""
        return self._source.count

    @property
    def height(self) -> int:
        """Tree height in levels (a lone leaf root has height 1)."""
        if self._root is None:
            return 0
        height = 1
        node = self._root
        while not node.is_leaf:
            node = node.children[0]
            height += 1
        return height

    @property
    def node_count(self) -> int:
        """Total number of nodes."""
        if self._root is None:
            return 0
        count = 0
        stack = [self._root]
        while stack:
            node = stack.pop()
            count += 1
            if not node.is_leaf:
                stack.extend(node.children)
        return count

    def __repr__(self) -> str:
        return (
            f"TSIndex(windows={self.size}, length={self.length}, "
            f"height={self.height}, nodes={self.node_count})"
        )

    def iter_nodes(self) -> Any:
        """Yield ``(node, depth)`` pairs in pre-order (for diagnostics,
        memory accounting and invariant tests)."""
        if self._root is None:
            return
        stack = [(self._root, 0)]
        while stack:
            node, depth = stack.pop()
            yield node, depth
            if not node.is_leaf:
                stack.extend((child, depth + 1) for child in node.children)

    # ------------------------------------------------------------------
    # Insertion (Section 5.2)
    # ------------------------------------------------------------------
    def insert(self, position: int) -> None:
        """Insert one window by start position (exposed for incremental
        maintenance; :meth:`from_source` uses it for every window)."""
        if not 0 <= position < self._source.count:
            raise InvalidParameterError(
                f"position {position} outside [0, {self._source.count})"
            )
        self._insert_position(position)
        self._build_stats.windows = max(self._build_stats.windows, 0) + 1

    def _insert_position(self, position: int) -> None:
        window = self._source.window(position)
        if self._root is None:
            self._root = _Node(MBTS.from_sequence(window), positions=[position])
            return
        sibling = self._insert_into(self._root, window, position)
        if sibling is not None:
            old_root = self._root
            new_root = _Node(
                old_root.mbts.union(sibling.mbts),
                children=[old_root, sibling],
            )
            self._root = new_root

    def _insert_into(self, node: _Node, window: np.ndarray, position: int):
        """Recursive insert; returns a new sibling when ``node`` split."""
        node.mbts.expand_fast(window)
        if node.is_leaf:
            node.positions.append(position)
            if len(node.positions) > self._params.max_children:
                return self._split_leaf(node)
            return None

        chosen = self._choose_subtree(node, window)
        child = node.children[chosen]
        new_child = self._insert_into(child, window, position)
        # The recursion expanded (or split and rebuilt) the chosen
        # child's MBTS; bring its envelope row back in sync.
        node.refresh_child_row(chosen)
        if new_child is not None:
            node.append_child(new_child)
            if len(node.children) > self._params.max_children:
                return self._split_internal(node)
        return None

    def _choose_subtree(self, node: _Node, window: np.ndarray) -> int:
        """Index of the child whose MBTS is nearest to the window
        (Eq. 2), breaking ties by least enlargement, then smallest
        area."""
        upper, lower = node.child_envelopes()
        outside = np.maximum(window - upper, lower - window)
        distances = np.maximum(outside.max(axis=1), 0.0)
        minimum = distances.min()
        best = np.flatnonzero(distances == minimum)
        if best.size == 1:
            return int(best[0])
        enlargements = np.maximum(outside[best], 0.0).sum(axis=1)
        best = best[enlargements == enlargements.min()]
        if best.size == 1:
            return int(best[0])
        areas = (upper[best] - lower[best]).sum(axis=1)
        return int(best[int(np.argmin(areas))])

    # ------------------------------------------------------------------
    # Splits (Section 5.2)
    # ------------------------------------------------------------------
    def _split_leaf(self, node: _Node) -> _Node:
        positions = np.asarray(node.positions, dtype=POSITION_DTYPE)
        matrix = self._source.windows(positions)
        pairwise = matrix[:, None, :] - matrix[None, :, :]
        np.abs(pairwise, out=pairwise)
        distances = pairwise.max(axis=2)
        seed_a, seed_b = np.unravel_index(
            np.argmax(distances), distances.shape
        )
        if seed_a == seed_b:  # all entries identical: arbitrary halves
            half = positions.size // 2
            groups = (list(range(half)), list(range(half, positions.size)))
        else:
            groups = self._distribute(
                matrix, int(seed_a), int(seed_b), rows_are_mbts=False
            )

        group_a, group_b = groups
        node.positions = [int(positions[i]) for i in group_a]
        node.mbts = MBTS.from_sequences(matrix[group_a])
        sibling = _Node(
            MBTS.from_sequences(matrix[group_b]),
            positions=[int(positions[i]) for i in group_b],
        )
        self._build_stats.splits += 1
        return sibling

    def _split_internal(self, node: _Node) -> _Node:
        children = node.children
        upper = np.stack([c.mbts.upper for c in children])
        lower = np.stack([c.mbts.lower for c in children])
        gap_a = lower[:, None, :] - upper[None, :, :]
        distances = np.maximum(
            np.maximum(gap_a, np.swapaxes(gap_a, 0, 1)), 0.0
        ).max(axis=2)
        seed_a, seed_b = np.unravel_index(
            np.argmax(distances), distances.shape
        )
        if seed_a == seed_b:
            half = len(children) // 2
            groups = (list(range(half)), list(range(half, len(children))))
        else:
            bounds = np.stack([upper, lower], axis=1)  # (k, 2, l)
            groups = self._distribute(
                bounds, int(seed_a), int(seed_b), rows_are_mbts=True
            )

        group_a, group_b = groups
        kept = [children[i] for i in group_a]
        moved = [children[i] for i in group_b]
        node.children = kept
        node.mbts = _union_of(kept)
        node.invalidate_cache()
        sibling = _Node(_union_of(moved), children=moved)
        self._build_stats.splits += 1
        return sibling

    def _distribute(self, rows: np.ndarray, seed_a: int, seed_b: int, *, rows_are_mbts: bool):
        """Assign entries to the two seeds, honouring ``min_children``.

        ``rows`` is ``(k, l)`` of sequences (leaf split) or ``(k, 2, l)``
        of stacked [upper, lower] envelopes (internal split). Each entry
        goes to the side whose MBTS it enlarges least (``area`` metric) or
        pokes out of least (``max`` metric); once a side must absorb all
        remaining entries to reach ``μc``, it does.
        """
        total = rows.shape[0]
        minimum = self._params.min_children

        def bounds_of(i):
            if rows_are_mbts:
                return rows[i, 0], rows[i, 1]
            return rows[i], rows[i]

        upper_a, lower_a = (b.copy() for b in bounds_of(seed_a))
        upper_b, lower_b = (b.copy() for b in bounds_of(seed_b))
        group_a, group_b = [seed_a], [seed_b]
        remaining = [i for i in range(total) if i not in (seed_a, seed_b)]

        for index_in_queue, i in enumerate(remaining):
            left = len(remaining) - index_in_queue
            if len(group_a) + left == minimum:
                group_a.extend(remaining[index_in_queue:])
                break
            if len(group_b) + left == minimum:
                group_b.extend(remaining[index_in_queue:])
                break

            hi, lo = bounds_of(i)
            grow_up_a = np.maximum(hi - upper_a, 0.0)
            grow_dn_a = np.maximum(lower_a - lo, 0.0)
            grow_up_b = np.maximum(hi - upper_b, 0.0)
            grow_dn_b = np.maximum(lower_b - lo, 0.0)
            if self._params.split_metric == "area":
                cost_a = float(grow_up_a.sum() + grow_dn_a.sum())
                cost_b = float(grow_up_b.sum() + grow_dn_b.sum())
            else:
                cost_a = float(max(grow_up_a.max(), grow_dn_a.max()))
                cost_b = float(max(grow_up_b.max(), grow_dn_b.max()))
            if cost_a < cost_b or (
                cost_a == cost_b
                and float((upper_a - lower_a).sum())
                <= float((upper_b - lower_b).sum())
            ):
                group_a.append(i)
                np.maximum(upper_a, hi, out=upper_a)
                np.minimum(lower_a, lo, out=lower_a)
            else:
                group_b.append(i)
                np.maximum(upper_b, hi, out=upper_b)
                np.minimum(lower_b, lo, out=lower_b)
        return group_a, group_b

    # ------------------------------------------------------------------
    # Query (Section 5.3, Algorithm 1)
    # ------------------------------------------------------------------
    def search(
        self,
        query: npt.ArrayLike,
        epsilon: float,
        *,
        verification: str = "bulk",
    ) -> SearchResult:
        """All twin subsequences of ``query`` within Chebyshev ``ε``.

        The traversal prunes every subtree whose node MBTS is farther
        than ``ε`` from the query (Lemma 1); qualifying leaves contribute
        candidate positions which are then exactly verified with the
        chosen strategy (see
        :data:`~repro.core.verification.VERIFICATION_MODES`; all modes
        return identical results).
        """
        if is_prefix_query(query, self._source.length):
            return self.search_varlength(
                query, epsilon, verification=verification
            )
        epsilon = check_non_negative(epsilon, name="epsilon")
        query = self._prepare_query(query)
        stats = QueryStats()
        candidates = self._collect_candidates(query, epsilon, stats)
        return verify(
            self._source, query, candidates, epsilon,
            mode=verification, stats=stats,
        )

    def count(self, query: npt.ArrayLike, epsilon: float) -> int:
        """Number of twins (convenience wrapper over :meth:`search`;
        shorter queries count their prefix twins, tail included)."""
        return len(self.search(query, epsilon))

    def search_batch(
        self, queries: Iterable[npt.ArrayLike], epsilon: float, **search_options: Any
    ) -> Any:
        """Run a whole workload; per-query results plus aggregates.

        The pipeline-backed default every plane shares (a planner loop
        over :meth:`search` with the shared merge/stats kernel); the
        frozen form (:meth:`freeze`) has a batched shared-traversal
        kernel instead.
        """
        from ..query import QuerySpec, execute

        return execute(
            self,
            QuerySpec(
                query=list(queries),
                mode="batch",
                epsilon=epsilon,
                options=dict(search_options),
            ),
        )

    def search_varlength(
        self,
        query: npt.ArrayLike,
        epsilon: float,
        *,
        verification: str = "bulk",
    ) -> SearchResult:
        """All twins of a query of length ``m <= l`` (extension).

        Returns every position ``p`` in ``[0, n - m]`` with
        ``max_i |T[p + i] - Q_i| <= ε`` — *including* the ``l - m``
        tail positions the fixed-length index does not store, which a
        direct scan covers. The traversal applies the Eq. 2 bound
        restricted to the query's prefix length (a node MBTS prefix is
        a valid envelope for the window prefixes beneath it, so pruning
        stays lossless); queries of exactly length ``l`` delegate to
        :meth:`search` — identical positions, distances and counters.

        Per-window z-normalization rejects shorter queries with a typed
        error (windows are normalized over ``l`` points, the query over
        ``m``); the raw and global regimes are exact.
        """
        return prefix_search_with_tail(
            self, query, epsilon, verification=verification
        )

    def collect_varlength_candidates(
        self, query: np.ndarray, epsilon: float, stats: QueryStats
    ) -> np.ndarray:
        """Unverified candidate positions (tail excluded) for a prepared
        prefix query — the fan-out hook the composite planes call per
        shard/segment; the fixed-length collection already bounds over
        the query's own length."""
        return self._collect_candidates(query, epsilon, stats)

    def search_approximate(
        self, query: npt.ArrayLike, epsilon: float, *, max_leaves: int = 8
    ) -> SearchResult:
        """Twins from the ``max_leaves`` most promising leaves only.

        A budgeted best-first probe (the ADS+-style interactive
        primitive): leaves are verified in increasing order of their
        Eq. 2 bound and traversal stops after ``max_leaves`` of them
        (or once the bound exceeds ``ε``). Always a subset of
        :meth:`search`; raising the budget converges to the exact
        answer, with cost bounded by ``max_leaves`` leaf verifications.
        """
        epsilon = check_non_negative(epsilon, name="epsilon")
        max_leaves = check_positive_int(max_leaves, name="max_leaves")
        query = self._prepare_query(query)
        stats = QueryStats()
        leaves = itertools.islice(
            self._leaves_best_first(query, stats, epsilon), max_leaves
        )
        candidates = np.concatenate([np.empty(0, dtype=POSITION_DTYPE), *leaves])
        return verify(self._source, query, candidates, epsilon, stats=stats)

    def exists(
        self, query: npt.ArrayLike, epsilon: float, *, stats: QueryStats | None = None
    ) -> bool:
        """Whether *any* twin exists, with early exit (extension).

        Unlike :meth:`search`, qualifying leaves are verified as soon as
        they are reached and the traversal stops at the first twin —
        the cheapest possible decision procedure for questions like
        "has this pattern occurred before?".

        Pass a :class:`QueryStats` to receive the traversal counters
        (nodes visited/pruned, leaves accessed, candidates verified;
        ``matches`` is 1 when a twin was found). The counters match
        :meth:`FrozenTSIndex.exists
        <repro.core.frozen.FrozenTSIndex.exists>` exactly, so the two
        paths stay comparable. Queries shorter than ``l`` derive from
        :meth:`search_varlength` (its counters land in ``stats`` too).
        """
        if is_prefix_query(query, self._source.length):
            result = self.search_varlength(query, epsilon)
            merge_exists_stats(stats, result)
            return len(result) > 0
        epsilon = check_non_negative(epsilon, name="epsilon")
        query = self._prepare_query(query)
        stats = stats if stats is not None else QueryStats()
        if self._root is None:
            return False

        stats.nodes_visited += 1
        if self._root.mbts.distance_to_sequence(query) > epsilon:
            stats.nodes_pruned += 1
            return False
        if self._root.is_leaf:
            return self._leaf_has_twin(self._root, query, epsilon, stats)

        stack = [self._root]
        while stack:
            node = stack.pop()
            bounds = self._child_bounds(node, query)
            stats.nodes_visited += len(node.children)
            for bound, child in zip(bounds.tolist(), node.children):
                if bound > epsilon:
                    stats.nodes_pruned += 1
                    continue
                if child.is_leaf:
                    if self._leaf_has_twin(child, query, epsilon, stats):
                        return True
                else:
                    stack.append(child)
        return False

    def _leaf_has_twin(
        self, node: _Node, query: np.ndarray, epsilon: float, stats: QueryStats
    ) -> bool:
        stats.leaves_accessed += 1
        positions = np.asarray(node.positions, dtype=POSITION_DTYPE)
        block = self._source.windows(positions)
        stats.candidates += int(positions.size)
        stats.verified += int(positions.size)
        found = bool(np.any(np.max(np.abs(block - query), axis=1) <= epsilon))
        if found:
            stats.matches += 1
        return found

    @staticmethod
    def _child_bounds(node: _Node, query: np.ndarray) -> np.ndarray:
        """Eq. 2 bound of ``query`` against every child of ``node`` —
        one vectorized reduction over the cached envelope matrices
        instead of a per-child ``distance_to_sequence`` call."""
        upper, lower = node.child_envelopes()
        outside = np.maximum(query - upper, lower - query).max(axis=1)
        return np.maximum(outside, 0.0)

    def _collect_candidates(
        self, query: np.ndarray, epsilon: float, stats: QueryStats
    ) -> np.ndarray:
        """Algorithm 1's traversal, accumulating leaf candidates. Bounds
        run over the first ``query.size`` timestamps of every envelope
        (a node MBTS prefix bounds the window prefixes beneath it), so a
        prefix query prunes losslessly too."""
        root = self._root
        if root is None:
            return np.empty(0, dtype=POSITION_DTYPE)
        stats.nodes_visited += 1
        m = query.size
        outside = np.maximum(query - root.mbts.upper[:m], root.mbts.lower[:m] - query)
        if outside.max() > epsilon:
            stats.nodes_pruned += 1
            return np.empty(0, dtype=POSITION_DTYPE)
        if root.is_leaf:
            stats.leaves_accessed += 1
            return np.asarray(root.positions, dtype=POSITION_DTYPE)

        collected = [np.empty(0, dtype=POSITION_DTYPE)]
        stack = [root]
        while stack:
            node = stack.pop()
            upper, lower = node.child_envelopes()
            outside = np.maximum(query - upper[:, :m], lower[:, :m] - query)
            stats.nodes_visited += len(node.children)
            for bound, child in zip(outside.max(axis=1).tolist(), node.children):
                if bound > epsilon:
                    stats.nodes_pruned += 1
                elif child.is_leaf:
                    stats.leaves_accessed += 1
                    collected.append(
                        np.asarray(child.positions, dtype=POSITION_DTYPE)
                    )
                else:
                    stack.append(child)
        return np.concatenate(collected)

    # ------------------------------------------------------------------
    # k-NN twin search (extension; the Eq. 2 bound as a lower bound)
    # ------------------------------------------------------------------
    def knn(
        self, query: npt.ArrayLike, k: int, *, exclude: tuple[int, int] | None = None
    ) -> SearchResult:
        """The ``k`` windows nearest to ``query`` in Chebyshev distance.

        Exact, because Eq. 2 lower-bounds the distance of every window
        under a node (Lemma 1): a best-first descent by that bound stops
        once ``k`` windows outside ``exclude`` are seen, and the k-th
        smallest of their distances is a radius τ; Algorithm 1's
        traversal at τ collects every window that can be in the answer;
        and :func:`~repro.core.verification.rank_nearest` verifies those
        in ascending order of a probe-column lower bound, tightening τ.
        Ties at the k-th distance go to the smallest position, as in
        every plane's ``(distance, position)`` merge.

        ``exclude`` removes the half-open position range ``[a, b)`` —
        the *exclusion zone* matrix-profile style self joins use to skip
        a query's trivial matches with its own overlapping windows.

        Counters: the traversal counters add up the descent and the
        range traversal; ``candidates`` counts the range candidates
        outside the exclusion zone, ``verified`` the windows whose exact
        distance was computed. Queries shorter than ``l`` dispatch to the
        pipeline's exact prefix scan (same tie-break, tail included).
        """
        if is_prefix_query(query, self._source.length):
            from ..query import QuerySpec, execute

            return execute(
                self,
                QuerySpec(query=query, mode="knn", k=k, exclude=exclude),
            )
        k = check_positive_int(k, name="k")
        query = self._prepare_query(query)
        exclude = normalize_exclude(exclude)
        stats = QueryStats()
        return seeded_knn(
            self._source,
            query,
            k,
            self._leaves_best_first(query, stats),
            lambda tau: self._collect_candidates(query, tau, stats),
            exclude=exclude,
            stats=stats,
        )

    def _leaves_best_first(
        self, query: np.ndarray, stats: QueryStats, radius: float = np.inf
    ) -> Iterator[np.ndarray]:
        """Leaf positions in ascending order of the leaves' Eq. 2 bound:
        a best-first descent, as lazy as its consumer, that prunes every
        subtree bounded past ``radius``."""
        if self._root is None:
            return
        counter = itertools.count()
        root_bound = self._root.mbts.distance_to_sequence(query)
        frontier = [(root_bound, next(counter), self._root)]
        while frontier:
            bound, _, node = heapq.heappop(frontier)
            if bound > radius:
                stats.nodes_pruned += 1
                return
            stats.nodes_visited += 1
            if node.is_leaf:
                stats.leaves_accessed += 1
                yield np.asarray(node.positions, dtype=POSITION_DTYPE)
                continue
            bounds = self._child_bounds(node, query)
            for child_bound, child in zip(bounds.tolist(), node.children):
                if child_bound <= radius:
                    heapq.heappush(frontier, (child_bound, next(counter), child))
                else:
                    stats.nodes_pruned += 1

    # ------------------------------------------------------------------
    def _prepare_query(self, query) -> np.ndarray:
        return prepare_values(
            self._source, query, expected=self._source.length
        )


@register_plane(
    "tsindex",
    aliases=("ts",),
    paper=True,
    summary="MBTS tree, the paper's contribution (Section 5)",
)
def _tsindex_plane(source: WindowSource, **kwargs) -> TSIndex:
    """Registry builder: loose kwargs become :class:`TSIndexParams`."""
    params = kwargs.pop("params", None)
    if kwargs:
        params = TSIndexParams(**kwargs)
    return TSIndex.from_source(source, params=params)


def _union_of(nodes: list[_Node]) -> MBTS:
    """MBTS covering a non-empty list of nodes."""
    union = nodes[0].mbts.copy()
    for node in nodes[1:]:
        union.expand_to_include_mbts(node.mbts)
    return union
