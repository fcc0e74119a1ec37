"""FrozenTSIndex — a read-optimized, array-flattened TS-Index snapshot.

The dynamic :class:`~repro.core.tsindex.TSIndex` is a pointer tree of
Python ``_Node`` objects: ideal for insertion, terrible for query
throughput, because every traversal chases object references and runs
per-node Python. Freezing converts the finished tree into a
structure-of-arrays *query plane*:

* ``uppers`` / ``lowers`` — ``(n_nodes, l)`` stacked envelope matrices
  (rows are node MBTS bounds, in BFS order, root first);
* ``children_offsets`` / ``children`` — a CSR adjacency: node ``i``'s
  children are ``children[children_offsets[i]:children_offsets[i+1]]``;
* ``leaf_offsets`` / ``positions`` — one contiguous array of all leaf
  window positions with per-node half-open spans (empty for internal
  nodes).

Queries then run *level-synchronously*: the Eq. 2 bound of the entire
frontier against the query is one broadcast NumPy reduction per level
(``max(max(Q - U, L - Q), axis=1)``) instead of one Python call per
node, and :meth:`FrozenTSIndex.search_batch` extends the same idea to a
``(query, node)`` pair frontier so many queries share one traversal.

Results are **exactly** those of the pointer tree — same positions,
same distances, the same deterministic ``(distance, position)`` k-NN
tie-break, and (for ``search`` / ``exists``) the same structural
counters — enforced by the randomized equivalence suite in
``tests/test_frozen.py``.

Lifecycle: **build** the dynamic tree (sequential insertion or
:mod:`~repro.core.bulkload`), **freeze** it once writes stop, then
**serve** queries from the flat form (a frozen index is immutable; to
add windows, build a new tree and freeze again). The serving layer
(:class:`repro.engine.ShardedTSIndex`) freezes its shards at build time
by default, and :mod:`repro.persistence` round-trips the arrays
natively, so loading a frozen archive is pure array reads.
"""

from __future__ import annotations

import dataclasses
import heapq
import time
from typing import TYPE_CHECKING, Iterable, Iterator

import numpy as np
import numpy.typing as npt

from .._util import (
    FLOAT_DTYPE,
    POSITION_DTYPE,
    check_non_negative,
    check_positive_int,
    iter_chunks,
)
from ..exceptions import InvalidParameterError
from ..query.capabilities import (
    CAP_COUNT,
    CAP_EXISTS,
    CAP_KNN,
    CAP_SEARCH,
    CAP_SEARCH_BATCH,
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
from .batch import BatchResult
from .distance import reorder_by_magnitude
from .normalization import Normalization
from .stats import BuildStats, QueryStats, SearchResult
from .verification import PROBE_COLUMNS, partial_distance, seeded_knn, verify
from .windows import WindowSource

if TYPE_CHECKING:  # runtime import would be circular; tsindex imports us
    from .tsindex import TSIndex, TSIndexParams, _Node

#: Upper bound on the elements of one ``(pairs, l)`` bound temporary;
#: larger frontiers are processed in chunks so peak memory stays at
#: roughly ``_BOUND_CHUNK * 8`` bytes per temporary.
_BOUND_CHUNK = 1 << 20

#: Largest (query, node) pair count a batched level evaluates through
#: the gathered pair kernel; bigger levels switch to per-query passes
#: over contiguous envelope spans (less copying, same results).
_PAIR_KERNEL_LIMIT = 4096

#: Columns per early-abandoning block in the pruning kernels. Pruned
#: nodes usually reveal themselves within the first block, so the bound
#: arithmetic for the (vast) pruned majority touches ``_PRUNE_BLOCK``
#: timestamps instead of all ``l`` — the node-level analogue of the
#: blocked verification strategy, with identical prune decisions
#: (partial maxima only ever grow).
_PRUNE_BLOCK = 32

#: Names of the flat arrays a frozen index is made of (the serializer
#: round-trips exactly this set).
ARRAY_FIELDS = (
    "uppers",
    "lowers",
    "kinds",
    "children_offsets",
    "children",
    "leaf_offsets",
    "positions",
)

#: The same arrays with the envelopes in their *resident*
#: timestamp-major ``(l, n)`` layout (``uppers_t`` / ``lowers_t``).
#: Archives stored this way load zero-copy: :meth:`FrozenTSIndex`
#: adopts the matrices as-is (memmap views included) instead of
#: transposing ``(n, l)`` input into fresh private memory.
RAW_ARRAY_FIELDS = (
    "uppers_t",
    "lowers_t",
    "kinds",
    "children_offsets",
    "children",
    "leaf_offsets",
    "positions",
)


def _read_only(array: np.ndarray) -> np.ndarray:
    """A read-only view of ``array`` (the caller's own handle — and its
    write flag — is never touched)."""
    view = array.view()
    view.setflags(write=False)
    return view


def _concat_ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Concatenate ``[arange(s, s + c) for s, c in zip(starts, counts)]``
    without a Python loop (the standard cumsum run-expansion trick)."""
    nonzero = counts > 0
    if not nonzero.all():
        starts = starts[nonzero]
        counts = counts[nonzero]
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    steps = np.ones(total, dtype=np.int64)
    steps[0] = starts[0]
    run_starts = np.cumsum(counts[:-1])
    steps[run_starts] = starts[1:] - (starts[:-1] + counts[:-1]) + 1
    return np.cumsum(steps)


class FrozenTSIndex:
    """An immutable, array-backed TS-Index answering the read-only query
    surface (``search`` / ``knn`` / ``exists`` / ``search_batch``).

    Create one with :meth:`TSIndex.freeze()
    <repro.core.tsindex.TSIndex.freeze>` (or the :meth:`build`
    convenience); convert back with :meth:`thaw` when the tree must grow
    again.

    Examples
    --------
    >>> import numpy as np
    >>> from repro.core import TSIndex
    >>> rng = np.random.default_rng(7)
    >>> series = np.cumsum(rng.normal(size=2000))
    >>> index = TSIndex.build(series, length=50, normalization="none")
    >>> frozen = index.freeze()
    >>> result = frozen.search(series[100:150], epsilon=0.5)
    >>> 100 in result.positions
    True
    """

    method_name = "frozen"

    #: Native kernels the query planner may call directly (the whole
    #: read-only surface, including the batched traversal).
    capabilities = frozenset(
        {
            CAP_SEARCH,
            CAP_KNN,
            CAP_EXISTS,
            CAP_COUNT,
            CAP_SEARCH_BATCH,
            CAP_VARLENGTH,
            CAP_VERIFICATION,
        }
    )

    __slots__ = (
        "_source",
        "_params",
        "_build_stats",
        "_freeze_seconds",
        "_uppers",
        "_lowers",
        "_kinds",
        "_children_offsets",
        "_children",
        "_leaf_offsets",
        "_positions",
        "_bfs_layout",
        "_uppers_t",
        "_lowers_t",
    )

    def __init__(
        self,
        source: WindowSource,
        params: TSIndexParams,
        build_stats: BuildStats,
        arrays: dict,
        *,
        freeze_seconds: float = 0.0,
    ):
        self._source = source
        self._params = params
        self._build_stats = build_stats
        self._freeze_seconds = float(freeze_seconds)

        if "uppers_t" in arrays:
            # Timestamp-major input (raw archives): adopt the matrices
            # as-is — for a contiguous float64 memmap this is zero-copy,
            # which is what makes mmap cold starts O(1) in the envelope
            # size. The row-major handles below are transposed views.
            uppers_t = np.ascontiguousarray(
                arrays["uppers_t"], dtype=FLOAT_DTYPE
            )
            lowers_t = np.ascontiguousarray(
                arrays["lowers_t"], dtype=FLOAT_DTYPE
            )
            uppers = uppers_t.T
            lowers = lowers_t.T
        else:
            uppers_t = lowers_t = None
            uppers = np.ascontiguousarray(arrays["uppers"], dtype=FLOAT_DTYPE)
            lowers = np.ascontiguousarray(arrays["lowers"], dtype=FLOAT_DTYPE)
        kinds = np.ascontiguousarray(arrays["kinds"], dtype=np.int8)
        children_offsets = np.ascontiguousarray(
            arrays["children_offsets"], dtype=np.int64
        )
        children = np.ascontiguousarray(arrays["children"], dtype=np.int64)
        leaf_offsets = np.ascontiguousarray(
            arrays["leaf_offsets"], dtype=np.int64
        )
        positions = np.ascontiguousarray(
            arrays["positions"], dtype=POSITION_DTYPE
        )

        n = kinds.size
        length = source.length
        if uppers.shape != (n, length) or lowers.shape != (n, length):
            raise InvalidParameterError(
                f"envelope matrices must be ({n}, {length}), got "
                f"{uppers.shape} and {lowers.shape}"
            )
        if children_offsets.shape != (n + 1,):
            raise InvalidParameterError(
                f"children_offsets must have {n + 1} entries, got "
                f"{children_offsets.size}"
            )
        if int(children_offsets[-1]) != children.size:
            raise InvalidParameterError(
                "children_offsets[-1] must equal len(children), got "
                f"{int(children_offsets[-1])} vs {children.size}"
            )
        if leaf_offsets.shape != (n + 1,):
            raise InvalidParameterError(
                f"leaf_offsets must have {n + 1} entries, got "
                f"{leaf_offsets.size}"
            )
        if int(leaf_offsets[-1]) != positions.size:
            raise InvalidParameterError(
                "leaf_offsets[-1] must equal len(positions), got "
                f"{int(leaf_offsets[-1])} vs {positions.size}"
            )
        # Content checks: a corrupted or hand-built archive must fail
        # loudly here, not return silently wrong answers later (negative
        # ids, for instance, would wrap around under fancy indexing).
        if children.size and (
            int(children.min()) < 1 or int(children.max()) >= n
        ):
            raise InvalidParameterError(
                f"children ids must lie in [1, {n}), got range "
                f"[{int(children.min())}, {int(children.max())}]"
            )
        for name, offsets in (
            ("children_offsets", children_offsets),
            ("leaf_offsets", leaf_offsets),
        ):
            if offsets.size and (
                int(offsets[0]) != 0 or np.any(np.diff(offsets) < 0)
            ):
                raise InvalidParameterError(
                    f"{name} must start at 0 and be non-decreasing"
                )
        if positions.size and (
            int(positions.min()) < 0 or int(positions.max()) >= source.count
        ):
            raise InvalidParameterError(
                f"positions must lie in [0, {source.count}), got range "
                f"[{int(positions.min())}, {int(positions.max())}]"
            )

        # The whole point of freezing is immutability; every stored
        # handle is a read-only view, so accidental writes are loud —
        # without ever flipping the write flag on caller-owned arrays.
        self._kinds = _read_only(kinds)
        self._children_offsets = _read_only(children_offsets)
        self._children = _read_only(children)
        self._leaf_offsets = _read_only(leaf_offsets)
        self._positions = _read_only(positions)
        # The envelopes are stored timestamp-major: the pruning kernels
        # consume columns (timestamps) a block at a time, and on a
        # row-major layout a column block of every node touches the
        # same cache lines as the full matrix, so blocked early
        # abandoning would save ALU work but no memory traffic. The
        # contiguous ``(l, n)`` matrices make each block a contiguous
        # slab; the row-major ``(n, l)`` form (serialization, thaw,
        # per-node reads) is exposed as their transposed views — one
        # resident copy of the envelopes, not two.
        if uppers_t is None:
            uppers_t = np.ascontiguousarray(uppers.T)
            lowers_t = np.ascontiguousarray(lowers.T)
        self._uppers_t = _read_only(uppers_t)
        self._lowers_t = _read_only(lowers_t)
        self._uppers = self._uppers_t.T
        self._lowers = self._lowers_t.T
        # In the canonical BFS layout every node except the root is the
        # child of exactly one earlier node, appended in visit order, so
        # the adjacency values are just 1..n-1 and each node's children
        # (and each traversal frontier) occupy *contiguous* id ranges.
        # That unlocks zero-copy envelope slices for dense frontiers;
        # foreign layouts fall back to gathers.
        self._bfs_layout = bool(
            n == 0 or np.array_equal(children, np.arange(1, n))
        )

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_tree(
        cls,
        source: WindowSource,
        root: _Node | None,
        params: TSIndexParams,
        build_stats: BuildStats,
    ) -> "FrozenTSIndex":
        """Flatten a dynamic ``_Node`` tree (BFS order, root = id 0)."""
        started = time.perf_counter()
        length = source.length
        if root is None:
            arrays = {
                "uppers": np.empty((0, length), dtype=FLOAT_DTYPE),
                "lowers": np.empty((0, length), dtype=FLOAT_DTYPE),
                "kinds": np.empty(0, dtype=np.int8),
                "children_offsets": np.zeros(1, dtype=np.int64),
                "children": np.empty(0, dtype=np.int64),
                "leaf_offsets": np.zeros(1, dtype=np.int64),
                "positions": np.empty(0, dtype=POSITION_DTYPE),
            }
            return cls(source, params, build_stats, arrays)

        order = [root]
        head = 0
        while head < len(order):
            node = order[head]
            head += 1
            if not node.is_leaf:
                order.extend(node.children)

        n = len(order)
        ids = {id(node): i for i, node in enumerate(order)}
        uppers = np.empty((n, length), dtype=FLOAT_DTYPE)
        lowers = np.empty((n, length), dtype=FLOAT_DTYPE)
        kinds = np.zeros(n, dtype=np.int8)
        child_counts = np.zeros(n, dtype=np.int64)
        leaf_counts = np.zeros(n, dtype=np.int64)
        for i, node in enumerate(order):
            uppers[i] = node.mbts.upper
            lowers[i] = node.mbts.lower
            if node.is_leaf:
                kinds[i] = 1
                leaf_counts[i] = len(node.positions)
            else:
                child_counts[i] = len(node.children)

        children_offsets = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(child_counts, out=children_offsets[1:])
        leaf_offsets = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(leaf_counts, out=leaf_offsets[1:])

        children = np.empty(int(children_offsets[-1]), dtype=np.int64)
        positions = np.empty(int(leaf_offsets[-1]), dtype=POSITION_DTYPE)
        for i, node in enumerate(order):
            if node.is_leaf:
                positions[leaf_offsets[i]:leaf_offsets[i + 1]] = node.positions
            else:
                children[children_offsets[i]:children_offsets[i + 1]] = [
                    ids[id(child)] for child in node.children
                ]

        arrays = {
            "uppers": uppers,
            "lowers": lowers,
            "kinds": kinds,
            "children_offsets": children_offsets,
            "children": children,
            "leaf_offsets": leaf_offsets,
            "positions": positions,
        }
        return cls(
            source,
            params,
            build_stats,
            arrays,
            freeze_seconds=time.perf_counter() - started,
        )

    @classmethod
    def from_arrays(
        cls,
        source: WindowSource,
        params: TSIndexParams,
        build_stats: BuildStats,
        arrays: dict,
    ) -> "FrozenTSIndex":
        """Wrap previously flattened arrays (the persistence fast path:
        loading a frozen archive is array reads, no re-insertion)."""
        return cls(source, params, build_stats, arrays)

    @classmethod
    def build(
        cls,
        series: npt.ArrayLike,
        length: int,
        *,
        normalization: Normalization | str = Normalization.GLOBAL,
        params: TSIndexParams | None = None,
    ) -> "FrozenTSIndex":
        """Build a dynamic TS-Index and freeze it in one call."""
        from .tsindex import TSIndex

        return TSIndex.build(
            series, length, normalization=normalization, params=params
        ).freeze()

    def thaw(self) -> TSIndex:
        """Reconstruct a dynamic :class:`~repro.core.tsindex.TSIndex`
        (for further insertion; queries on the result match exactly)."""
        from .mbts import MBTS
        from .tsindex import TSIndex, _Node

        n = self.node_count
        if n == 0:
            return TSIndex._from_prebuilt_root(
                self._source,
                None,
                self._params,
                dataclasses.replace(self._build_stats),
            )
        nodes: list[_Node] = []
        for i in range(n):
            mbts = MBTS(self._uppers[i], self._lowers[i])
            if self._kinds[i] == 1:
                start, stop = self._leaf_offsets[i], self._leaf_offsets[i + 1]
                nodes.append(
                    _Node(mbts, positions=self._positions[start:stop].tolist())
                )
            else:
                nodes.append(_Node(mbts, children=[]))
        for i in range(n):
            if self._kinds[i] == 0:
                start, stop = (
                    self._children_offsets[i],
                    self._children_offsets[i + 1],
                )
                nodes[i].children = [
                    nodes[j] for j in self._children[start:stop].tolist()
                ]
        return TSIndex._from_prebuilt_root(
            self._source,
            nodes[0],
            self._params,
            dataclasses.replace(self._build_stats),
        )

    def arrays(self) -> dict:
        """The flat arrays (read-only views; see :data:`ARRAY_FIELDS`)."""
        return {
            "uppers": self._uppers,
            "lowers": self._lowers,
            "kinds": self._kinds,
            "children_offsets": self._children_offsets,
            "children": self._children,
            "leaf_offsets": self._leaf_offsets,
            "positions": self._positions,
        }

    def raw_arrays(self) -> dict:
        """The flat arrays with the envelopes in their resident
        timestamp-major layout (see :data:`RAW_ARRAY_FIELDS`) — the
        zero-copy serialization form: no transposes on save, and
        :meth:`from_arrays` adopts them (memmaps included) without
        copying on load."""
        return {
            "uppers_t": self._uppers_t,
            "lowers_t": self._lowers_t,
            "kinds": self._kinds,
            "children_offsets": self._children_offsets,
            "children": self._children,
            "leaf_offsets": self._leaf_offsets,
            "positions": self._positions,
        }

    # ------------------------------------------------------------------
    # Metadata
    # ------------------------------------------------------------------
    @property
    def source(self) -> WindowSource:
        """The window source this index was built over."""
        return self._source

    @property
    def params(self) -> TSIndexParams:
        """Construction parameters of the tree that was frozen."""
        return self._params

    @property
    def build_stats(self) -> BuildStats:
        """Build counters carried over from the dynamic tree."""
        return self._build_stats

    @property
    def freeze_seconds(self) -> float:
        """Wall-clock cost of the freeze itself (0.0 when loaded)."""
        return self._freeze_seconds

    @property
    def length(self) -> int:
        """Indexed window length ``l``."""
        return self._source.length

    @property
    def size(self) -> int:
        """Number of indexed windows."""
        return self._source.count

    @property
    def node_count(self) -> int:
        """Total number of nodes."""
        return int(self._kinds.size)

    @property
    def leaf_count(self) -> int:
        """Number of leaf nodes."""
        return int(np.count_nonzero(self._kinds))

    @property
    def height(self) -> int:
        """Tree height in levels (a lone leaf root has height 1)."""
        if self.node_count == 0:
            return 0
        height = 1
        node = 0
        while self._kinds[node] == 0:
            node = int(self._children[self._children_offsets[node]])
            height += 1
        return height

    def __repr__(self) -> str:
        return (
            f"FrozenTSIndex(windows={self.size}, length={self.length}, "
            f"height={self.height}, nodes={self.node_count})"
        )

    # ------------------------------------------------------------------
    # Vectorized primitives over the flat arrays
    # ------------------------------------------------------------------
    def _node_bound(self, query: np.ndarray, node: int) -> float:
        """Exact (clamped) Eq. 2 bound of ``query`` against one node.

        Evaluated over the first ``query.size`` timestamps, so a
        shorter (prefix) query bounds against the envelope prefix — for
        full-length queries the slice is the whole row.
        """
        return max(
            float(
                np.max(
                    np.maximum(
                        query - self._uppers[node, : query.size],
                        self._lowers[node, : query.size] - query,
                    )
                )
            ),
            0.0,
        )

    @staticmethod
    def _prune_keep(
        query: np.ndarray,
        upper_t: np.ndarray,
        lower_t: np.ndarray,
        threshold: float,
    ) -> np.ndarray:
        """Boolean keep mask (exact Eq. 2 bound ``<= threshold``) over
        the columns of timestamp-major envelope matrices, via blocked
        early abandoning.

        ``upper_t`` / ``lower_t`` are ``(l, k)`` — one *row* per
        timestamp. Timestamps are consumed :data:`_PRUNE_BLOCK` rows at
        a time (contiguous memory) and nodes whose running maximum
        already exceeds ``threshold`` are compacted away between
        blocks, so pruned nodes — typically almost all of them — cost
        one block of traffic instead of all ``l`` timestamps. The
        surviving set is exactly the full computation's (partial maxima
        only ever grow).
        """
        total = upper_t.shape[1]
        keep = np.zeros(total, dtype=bool)
        if total == 0:
            return keep
        length = upper_t.shape[0]
        alive = np.arange(total)
        remaining_upper, remaining_lower = upper_t, lower_t
        consumed = 0
        while consumed < length and alive.size:
            width = min(_PRUNE_BLOCK, length - consumed)
            query_block = query[consumed:consumed + width, None]
            diffs = np.maximum(
                query_block - remaining_upper[:width],
                remaining_lower[:width] - query_block,
            ).max(axis=0)
            survive = diffs <= threshold
            consumed += width
            if survive.all():
                remaining_upper = remaining_upper[width:]
                remaining_lower = remaining_lower[width:]
            else:
                alive = alive[survive]
                remaining_upper = remaining_upper[width:, survive]
                remaining_lower = remaining_lower[width:, survive]
        keep[alive] = True
        return keep

    def _frontier_keep(
        self, query: np.ndarray, ids: np.ndarray, epsilon: float
    ) -> np.ndarray:
        """Keep mask for a whole (ascending) frontier of node ids.

        Under the BFS layout a dense frontier covers most of a
        contiguous id span, so the envelope columns come in as zero-copy
        *views* of the timestamp-major matrices (the handful of gap
        columns are evaluated too, harmlessly); sparse frontiers gather
        only their own columns.

        The bound runs over the first ``query.size`` timestamps — the
        timestamp-major layout makes the envelope *prefix* a zero-copy
        leading-row slice, which is what lets a shorter (prefix) query
        reuse this kernel (and its blocked early abandoning) unchanged.
        """
        prefix = query.size
        if self._bfs_layout and ids.size > 1:
            lo = int(ids[0])
            hi = int(ids[-1]) + 1
            if 2 * ids.size >= hi - lo:
                span_keep = self._prune_keep(
                    query,
                    self._uppers_t[:prefix, lo:hi],
                    self._lowers_t[:prefix, lo:hi],
                    epsilon,
                )
                return span_keep[ids - lo]
        upper = self._uppers_t[:prefix, ids]
        lower = self._lowers_t[:prefix, ids]
        if ids.size <= _PRUNE_BLOCK:
            # Tiny sparse frontiers: one unblocked evaluation beats the
            # blocked kernel's per-block dispatch overhead.
            column = query[:, None]
            return (
                np.maximum(column - upper, lower - column).max(axis=0)
                <= epsilon
            )
        return self._prune_keep(query, upper, lower, epsilon)

    def _pair_keep(
        self,
        queries_t: np.ndarray,
        q_idx: np.ndarray,
        node_idx: np.ndarray,
        epsilon: float,
    ) -> np.ndarray:
        """Keep mask for ``(query, node)`` pairs — the batched frontier
        bound, with the same blocked early-abandoning as
        :meth:`_prune_keep`. ``queries_t`` is the ``(l, q)``
        timestamp-major query matrix; pairs are outer-chunked so gather
        temporaries stay bounded."""
        total = q_idx.size
        keep = np.empty(total, dtype=bool)
        length = self.length
        chunk_pairs = max(1, _BOUND_CHUNK // max(1, _PRUNE_BLOCK))
        for start, stop in iter_chunks(total, chunk_pairs):
            alive_q = q_idx[start:stop]
            alive_n = node_idx[start:stop]
            alive = np.arange(alive_q.size)
            consumed = 0
            chunk_keep = np.zeros(alive_q.size, dtype=bool)
            while consumed < length and alive.size:
                rows = slice(consumed, consumed + _PRUNE_BLOCK)
                query_block = queries_t[rows, alive_q]
                upper_block = self._uppers_t[rows, alive_n]
                lower_block = self._lowers_t[rows, alive_n]
                diffs = np.maximum(
                    query_block - upper_block, lower_block - query_block
                ).max(axis=0)
                survive = diffs <= epsilon
                consumed = min(consumed + _PRUNE_BLOCK, length)
                if not survive.all():
                    alive = alive[survive]
                    alive_q = alive_q[survive]
                    alive_n = alive_n[survive]
            chunk_keep[alive] = True
            keep[start:stop] = chunk_keep
        return keep

    def _children_of(self, ids: np.ndarray) -> np.ndarray:
        """Concatenated child ids of every (internal) node in ``ids``."""
        starts = self._children_offsets[ids]
        counts = self._children_offsets[ids + 1] - starts
        return self._children[_concat_ranges(starts, counts)]

    def _leaf_positions(self, ids: np.ndarray) -> np.ndarray:
        """Concatenated stored positions of every leaf in ``ids``."""
        starts = self._leaf_offsets[ids]
        counts = self._leaf_offsets[ids + 1] - starts
        return self._positions[_concat_ranges(starts, counts)]

    def _leaf_span(self, node: int) -> np.ndarray:
        return self._positions[
            self._leaf_offsets[node]:self._leaf_offsets[node + 1]
        ]

    def _child_block(
        self, node: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(child_ids, upper_t, lower_t)`` for one internal node —
        timestamp-major ``(l, fanout)`` envelope matrices, zero-copy
        views under the BFS layout."""
        start = self._children_offsets[node]
        stop = self._children_offsets[node + 1]
        child_ids = self._children[start:stop]
        if self._bfs_layout and child_ids.size:
            lo = int(child_ids[0])
            hi = lo + child_ids.size
            return child_ids, self._uppers_t[:, lo:hi], self._lowers_t[:, lo:hi]
        return (
            child_ids,
            self._uppers_t[:, child_ids],
            self._lowers_t[:, child_ids],
        )

    # ------------------------------------------------------------------
    # Threshold search (Algorithm 1, level-synchronous)
    # ------------------------------------------------------------------
    def search(
        self,
        query: npt.ArrayLike,
        epsilon: float,
        *,
        verification: str = "bulk",
    ) -> SearchResult:
        """All twin subsequences of ``query`` within Chebyshev ``ε``.

        Same contract (and byte-identical results, including structural
        counters) as :meth:`TSIndex.search
        <repro.core.tsindex.TSIndex.search>`, but the traversal is
        level-synchronous: every level bounds the whole surviving
        frontier against the query in one broadcast reduction instead of
        one Python call per node.
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

    def search_varlength(
        self,
        query: npt.ArrayLike,
        epsilon: float,
        *,
        verification: str = "bulk",
    ) -> SearchResult:
        """All twins of a query of length ``m <= l``, tail included.

        Same contract as :meth:`TSIndex.search_varlength
        <repro.core.tsindex.TSIndex.search_varlength>`, executed
        level-synchronously: the whole frontier bounds against the
        zero-copy ``(m, k)`` leading-row spans of the timestamp-major
        envelope matrices, reusing the blocked early-abandoning pruning
        kernel unchanged. ``m == l`` delegates to :meth:`search`.
        """
        return prefix_search_with_tail(
            self, query, epsilon, verification=verification
        )

    def collect_varlength_candidates(
        self, query: np.ndarray, epsilon: float, stats: QueryStats
    ) -> np.ndarray:
        """Unverified candidate positions for a (prepared) prefix query
        — the fan-out hook composite planes call per shard/segment.

        The frontier kernels already evaluate bounds over the query's
        own length, so this is the fixed-length collection verbatim.
        """
        return self._collect_candidates(query, epsilon, stats)

    def _collect_candidates(
        self, query: np.ndarray, epsilon: float, stats: QueryStats
    ) -> np.ndarray:
        if self.node_count == 0:
            return np.empty(0, dtype=POSITION_DTYPE)

        stats.nodes_visited += 1
        if self._node_bound(query, 0) > epsilon:
            stats.nodes_pruned += 1
            return np.empty(0, dtype=POSITION_DTYPE)

        collected: list[np.ndarray] = []
        frontier = np.zeros(1, dtype=np.int64)
        while frontier.size:
            leaf_mask = self._kinds[frontier] == 1
            leaves = frontier[leaf_mask]
            if leaves.size:
                stats.leaves_accessed += int(leaves.size)
                collected.append(self._leaf_positions(leaves))
            internal = frontier[~leaf_mask]
            if internal.size == 0:
                break
            children = self._children_of(internal)
            keep = self._frontier_keep(query, children, epsilon)
            stats.nodes_visited += int(children.size)
            stats.nodes_pruned += int(children.size - np.count_nonzero(keep))
            frontier = children[keep]

        if not collected:
            return np.empty(0, dtype=POSITION_DTYPE)
        return np.concatenate(collected)

    # ------------------------------------------------------------------
    # Batched search: many queries share one traversal
    # ------------------------------------------------------------------
    def search_batch(
        self,
        queries: Iterable[npt.ArrayLike],
        epsilon: float,
        *,
        verification: str = "bulk",
    ) -> BatchResult:
        """Run every query of ``queries`` at ``epsilon`` in one pass.

        The traversal keeps a frontier of alive ``(query, node)`` pairs
        and bounds all of them per level with one broadcast reduction —
        the ``(q, frontier, l)`` evaluation — so the per-level NumPy
        dispatch cost is shared by the whole workload instead of paid
        per query. Each returned :class:`SearchResult` (positions,
        distances *and* structural counters) is exactly what
        :meth:`search` returns for that query alone. Workloads holding
        any query shorter than ``l`` dispatch to the pipeline's
        per-query loop (the shared pair traversal assumes one length).
        """
        epsilon = check_non_negative(epsilon, name="epsilon")
        queries = list(queries)
        if any(
            is_prefix_query(query, self._source.length)
            for query in queries
        ):
            from ..query import QuerySpec, execute

            return execute(
                self,
                QuerySpec(
                    query=queries,
                    mode="batch",
                    epsilon=epsilon,
                    options={"verification": verification},
                ),
            )
        prepared = [self._prepare_query(query) for query in queries]
        nq = len(prepared)
        candidates: list[list[np.ndarray]] = [[] for _ in range(nq)]
        visited = np.zeros(nq, dtype=np.int64)
        pruned = np.zeros(nq, dtype=np.int64)
        leaves_seen = np.zeros(nq, dtype=np.int64)

        if nq and self.node_count:
            matrix = np.stack(prepared)
            matrix_t = np.ascontiguousarray(matrix.T)
            visited += 1
            root_bounds = np.maximum(
                matrix - self._uppers[0], self._lowers[0] - matrix
            ).max(axis=1)
            dead = root_bounds > epsilon
            pruned += dead
            alive = np.flatnonzero(~dead).astype(np.int64)
            leaf_q: list[np.ndarray] = []
            leaf_nodes: list[np.ndarray] = []
            q_idx = alive
            node_idx = np.zeros(alive.size, dtype=np.int64)
            while q_idx.size:
                leaf_mask = self._kinds[node_idx] == 1
                if leaf_mask.any():
                    leaf_q.append(q_idx[leaf_mask])
                    leaf_nodes.append(node_idx[leaf_mask])
                internal = ~leaf_mask
                q_idx = q_idx[internal]
                node_idx = node_idx[internal]
                if q_idx.size == 0:
                    break
                starts = self._children_offsets[node_idx]
                counts = self._children_offsets[node_idx + 1] - starts
                child_nodes = self._children[_concat_ranges(starts, counts)]
                child_q = np.repeat(q_idx, counts)
                # Two evaluation shapes for the level's (query, node)
                # pairs: small pair sets amortize best through one
                # gathered pair kernel; large ones (dense frontiers)
                # are cheaper per query over contiguous envelope spans.
                if child_q.size <= _PAIR_KERNEL_LIMIT:
                    keep = self._pair_keep(
                        matrix_t, child_q, child_nodes, epsilon
                    )
                else:
                    keep = np.empty(child_q.size, dtype=bool)
                    bounds_of = np.searchsorted(
                        child_q, np.arange(nq + 1)
                    )
                    for qi in range(nq):
                        segment = slice(
                            int(bounds_of[qi]), int(bounds_of[qi + 1])
                        )
                        if segment.stop > segment.start:
                            keep[segment] = self._frontier_keep(
                                prepared[qi], child_nodes[segment], epsilon
                            )
                visited += np.bincount(child_q, minlength=nq)
                if not keep.all():
                    pruned += np.bincount(child_q[~keep], minlength=nq)
                    child_q = child_q[keep]
                    child_nodes = child_nodes[keep]
                q_idx, node_idx = child_q, child_nodes

            if leaf_q:
                all_q = np.concatenate(leaf_q)
                all_leaves = np.concatenate(leaf_nodes)
                leaves_seen += np.bincount(all_q, minlength=nq)
                grouping = np.argsort(all_q, kind="stable")
                all_q = all_q[grouping]
                all_leaves = all_leaves[grouping]
                splits = np.searchsorted(all_q, np.arange(nq + 1))
                for qi in range(nq):
                    chunk = all_leaves[splits[qi]:splits[qi + 1]]
                    if chunk.size:
                        candidates[qi].append(self._leaf_positions(chunk))

        per_query_stats = [
            QueryStats(
                nodes_visited=int(visited[qi]),
                nodes_pruned=int(pruned[qi]),
                leaves_accessed=int(leaves_seen[qi]),
            )
            for qi in range(nq)
        ]
        per_query_candidates = [
            np.concatenate(candidates[qi])
            if candidates[qi]
            else np.empty(0, dtype=POSITION_DTYPE)
            for qi in range(nq)
        ]
        if verification == "bulk":
            results = self._verify_batch(
                prepared, per_query_candidates, epsilon, per_query_stats
            )
        else:
            results = [
                verify(
                    self._source, prepared[qi], per_query_candidates[qi],
                    epsilon, mode=verification, stats=per_query_stats[qi],
                )
                for qi in range(nq)
            ]
        from ..query.merge import batch_result

        return batch_result(results, epsilon)

    def _verify_batch(
        self,
        queries: list[np.ndarray],
        candidates: list[np.ndarray],
        epsilon: float,
        stats_list: list[QueryStats],
    ) -> list[SearchResult]:
        """Exact verification of every query's candidates in one sweep.

        All ``(query, candidate)`` pairs are verified together with a
        handful of chunked reductions instead of one :func:`verify` call
        per query, in the same two passes as
        :func:`~repro.core.verification.verify_positions`; results (and
        counters) are exactly those of the per-query ``"bulk"``
        verifier.
        """
        nq = len(candidates)
        counts = np.asarray([c.size for c in candidates], dtype=np.int64)
        total = int(counts.sum())
        if total == 0:
            return [SearchResult.empty(stats) for stats in stats_list]

        all_positions = np.concatenate(candidates)
        all_q = np.repeat(np.arange(nq, dtype=np.int64), counts)
        # Sort by (query, position) so each query's segment comes out
        # position-ascending, matching verify_positions' output order.
        order = np.lexsort((all_positions, all_q))
        all_positions = all_positions[order]
        all_q = all_q[order]

        # The two passes of verify_positions over the pairs: each
        # query's PROBE_COLUMNS largest-|value| timestamps for every
        # pair, then the whole window for the pairs still within ε.
        matrix = np.stack(queries)
        probes = np.stack(
            [reorder_by_magnitude(query)[:PROBE_COLUMNS] for query in queries]
        )
        profile = np.empty(total, dtype=FLOAT_DTYPE)
        rows = max(1, _BOUND_CHUNK // max(1, self.length))
        for start, stop in iter_chunks(total, rows):
            positions = all_positions[start:stop]
            pair_q = all_q[start:stop]
            columns = probes[pair_q]
            running = partial_distance(
                self._source, positions, columns,
                np.take_along_axis(matrix[pair_q], columns, axis=1),
            )
            alive = np.flatnonzero(running <= epsilon)
            if alive.size and probes.shape[1] < self.length:
                block = self._source.windows(positions[alive])
                np.subtract(block, matrix[pair_q[alive]], out=block)
                np.abs(block, out=block)
                running[alive] = block.max(axis=1)
            profile[start:stop] = running
        keep = profile <= epsilon

        boundaries = np.searchsorted(all_q, np.arange(nq + 1))
        results: list[SearchResult] = []
        for qi, stats in enumerate(stats_list):
            segment = slice(int(boundaries[qi]), int(boundaries[qi + 1]))
            segment_keep = keep[segment]
            stats.candidates += int(counts[qi])
            stats.verified += int(counts[qi])
            positions = all_positions[segment][segment_keep]
            stats.matches += int(positions.size)
            results.append(
                SearchResult(
                    positions=positions,
                    distances=profile[segment][segment_keep],
                    stats=stats,
                )
            )
        return results

    # ------------------------------------------------------------------
    # k-NN: seed a radius, range-collect, rank in lower-bound order
    # ------------------------------------------------------------------
    def knn(
        self, query: npt.ArrayLike, k: int, *, exclude: tuple[int, int] | None = None
    ) -> SearchResult:
        """The ``k`` windows nearest to ``query`` in Chebyshev distance.

        The three steps of :meth:`TSIndex.knn
        <repro.core.tsindex.TSIndex.knn>`, with the same answer and
        counter meanings: a best-first descent seeds the radius τ, the
        level-synchronous collector of :meth:`search` gathers every
        window within τ, and :func:`~repro.core.verification.rank_nearest`
        ranks them by ``(distance, position)``. Counters: descent plus
        collection for the traversal; ``candidates`` are the range
        candidates outside ``exclude``, ``verified`` the exact distances.
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
        self, query: np.ndarray, stats: QueryStats
    ) -> Iterator[np.ndarray]:
        """Leaf position spans in ascending order of the leaves' Eq. 2
        bound: a best-first descent, as lazy as its consumer."""
        if self.node_count == 0:
            return
        frontier = [(self._node_bound(query, 0), 0)]
        while frontier:
            _, node = heapq.heappop(frontier)
            stats.nodes_visited += 1
            if self._kinds[node] == 1:
                stats.leaves_accessed += 1
                yield self._leaf_span(node)
                continue
            child_ids, upper, lower = self._child_block(node)
            bounds = np.maximum(
                query[:, None] - upper, lower - query[:, None]
            ).max(axis=0)
            for child_bound, child in zip(
                np.maximum(bounds, 0.0).tolist(), child_ids.tolist()
            ):
                heapq.heappush(frontier, (child_bound, child))

    # ------------------------------------------------------------------
    # Existence (early-exit decision procedure)
    # ------------------------------------------------------------------
    def exists(
        self, query: npt.ArrayLike, epsilon: float, *, stats: QueryStats | None = None
    ) -> bool:
        """Whether *any* twin exists, with early exit.

        Pass a :class:`QueryStats` to receive the traversal counters;
        they match the dynamic tree's :meth:`TSIndex.exists
        <repro.core.tsindex.TSIndex.exists>` exactly (same visit order).
        Queries shorter than ``l`` derive from :meth:`search_varlength`
        (its counters land in ``stats`` too).
        """
        if is_prefix_query(query, self._source.length):
            result = self.search_varlength(query, epsilon)
            merge_exists_stats(stats, result)
            return len(result) > 0
        epsilon = check_non_negative(epsilon, name="epsilon")
        query = self._prepare_query(query)
        stats = stats if stats is not None else QueryStats()
        if self.node_count == 0:
            return False

        stats.nodes_visited += 1
        if self._node_bound(query, 0) > epsilon:
            stats.nodes_pruned += 1
            return False
        if self._kinds[0] == 1:
            return self._leaf_has_twin(0, query, epsilon, stats)

        stack = [0]
        while stack:
            node = stack.pop()
            child_ids, upper, lower = self._child_block(node)
            keep = self._prune_keep(query, upper, lower, epsilon)
            stats.nodes_visited += int(child_ids.size)
            for survives, child in zip(keep.tolist(), child_ids.tolist()):
                if not survives:
                    stats.nodes_pruned += 1
                    continue
                if self._kinds[child] == 1:
                    if self._leaf_has_twin(child, query, epsilon, stats):
                        return True
                else:
                    stack.append(child)
        return False

    def _leaf_has_twin(
        self, node: int, query: np.ndarray, epsilon: float, stats: QueryStats
    ) -> bool:
        stats.leaves_accessed += 1
        positions = self._leaf_span(node)
        block = self._source.windows(positions)
        stats.candidates += int(positions.size)
        stats.verified += int(positions.size)
        found = bool(
            np.any(np.max(np.abs(block - query), axis=1) <= epsilon)
        )
        if found:
            stats.matches += 1
        return found

    # ------------------------------------------------------------------
    def _prepare_query(self, query) -> np.ndarray:
        return prepare_values(
            self._source, query, expected=self._source.length
        )


@register_plane(
    "frozen",
    aliases=("frozentsindex",),
    summary="read-optimized flat TS-Index snapshot (vectorized frontier)",
)
def _frozen_plane(source: WindowSource, **kwargs) -> FrozenTSIndex:
    """Registry builder: a TS-Index built then frozen in place."""
    from .tsindex import TSIndex, TSIndexParams

    params = kwargs.pop("params", None)
    if kwargs:
        params = TSIndexParams(**kwargs)
    return TSIndex.from_source(source, params=params).freeze()
