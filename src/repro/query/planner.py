"""Capability-negotiating planner: QuerySpec → plan → execute.

One pipeline answers every query mode on every plane:

1. a :class:`~repro.query.spec.QuerySpec` describes the query;
2. :func:`plan` negotiates with the target plane's declared
   :mod:`capabilities <repro.query.capabilities>` — native kernels are
   used where the plane has them, per-call options the plane does not
   understand are dropped, and the rest is **synthesized centrally**
   (exact scan k-NN, search-backed existence and counting, a fan-out
   batch loop) — so a plane that only implements
   ``search`` (sweepline, KV-Index, iSAX) is still fully servable
   through :class:`~repro.engine.executor.QueryEngine`;
3. :meth:`QueryPlan.execute` runs it, optionally fanning work out on an
   executor (natively where the plane supports ``executor=``, at the
   planner level for synthesized batches).

The synthesized kernels answer from the plane's own
:class:`~repro.core.windows.WindowSource`, so their results agree
exactly (positions, distances, ``(distance, position)`` tie-breaks)
with what a native kernel over the same windows would return.
"""

from __future__ import annotations

import dataclasses
from typing import Any

import numpy as np

from .._util import (
    FLOAT_DTYPE,
    POSITION_DTYPE,
    check_positive_int,
    iter_chunks,
    map_with_executor,
)
from ..core.stats import QueryStats, SearchResult
from ..exceptions import IndexNotBuiltError, UnsupportedCapabilityError
from ..obs.metrics import HandleCache
from ..obs.trace import current_trace
from .capabilities import (
    CAP_BATCHED_KERNEL,
    CAP_COUNT,
    CAP_EXECUTOR,
    CAP_EXISTS,
    CAP_FANOUT_TIMEOUT,
    CAP_KNN,
    CAP_SEARCH_BATCH,
    CAP_VARLENGTH,
    CAP_VERIFICATION,
    capabilities_of,
)
from .merge import batch_result
from .spec import QuerySpec, normalize_exclude, prepare_values
from .varlength import is_prefix_query, scan_prefix_knn, scan_prefix_search

#: Windows per block in the synthesized scan kernels (bounds the
#: temporary ``(block, l)`` matrix regardless of index size).
SCAN_BLOCK = 4096

#: Planner counters (recorded into the process default registry):
#: how many plans ran on a native plane kernel vs. a synthesized one,
#: and how many dispatched to the variable-length prefix path.
_metrics = HandleCache(
    lambda registry: (
        registry.counter(
            "repro_planner_plans_total",
            "Query plans produced, by mode and whether the mode runs "
            "on a native plane kernel.",
            labels=("mode", "native"),
        ),
        registry.counter(
            "repro_planner_varlength_plans_total",
            "Query plans dispatched to the variable-length prefix "
            "kernels (query length m < indexed window length l).",
        ),
    )
)


# ----------------------------------------------------------------------
# Synthesized kernels (used when a plane lacks the native capability)
# ----------------------------------------------------------------------
def scan_distances(source: Any, query: np.ndarray) -> np.ndarray:
    """Exact Chebyshev distance from ``query`` to every window,
    computed blockwise so memory stays bounded."""
    distances = np.empty(source.count, dtype=FLOAT_DTYPE)
    for start, stop in iter_chunks(source.count, SCAN_BLOCK):
        block = source.window_block(start, stop)
        distances[start:stop] = np.max(np.abs(block - query), axis=1)
    return distances


def scan_knn(source: Any, query: Any, k: int, exclude: Any = None) -> SearchResult:
    """Exact k-NN over every window of ``source`` — the synthesized
    k-NN any search-only plane serves through the planner.

    Ranks by the library-wide ``(distance, position)`` tie-break, so
    the answer equals what a native tree k-NN over the same windows
    returns. ``k`` and ``exclude`` are validated like every plane's
    (:func:`~repro.query.spec.normalize_exclude`).
    """
    query = prepare_values(source, query)
    k = check_positive_int(k, name="k")
    exclude = normalize_exclude(exclude)
    count = source.count
    stats = QueryStats()
    distances = scan_distances(source, query)
    positions = np.arange(count, dtype=POSITION_DTYPE)
    if exclude is not None:
        lo, hi = max(0, exclude[0]), min(count, exclude[1])
        if lo < hi:
            keep = np.ones(count, dtype=bool)
            keep[lo:hi] = False
            positions = positions[keep]
            distances = distances[keep]
    stats.candidates = int(positions.size)
    stats.verified = int(positions.size)
    k_eff = min(k, int(positions.size))
    if k_eff == 0:
        return SearchResult.empty(stats)
    # Full lexsort keeps ties exact at the k-th distance (argpartition
    # alone could pick the wrong tied positions).
    order = np.lexsort((positions, distances))[:k_eff]
    stats.matches = k_eff
    return SearchResult(
        positions=positions[order],
        distances=distances[order],
        stats=stats,
    )


def scan_count(source: Any, query: Any, epsilon: float) -> int:
    """Count twins without materializing a result: no position/distance
    arrays are built, just a blockwise running total. The
    memory-bounded alternative to ``len(search(...))`` for huge result
    sets (the planner's synthesized count prefers the plane's own
    pruned search — see :meth:`QueryPlan.execute`)."""
    query = prepare_values(source, query)
    total = 0
    for start, stop in iter_chunks(source.count, SCAN_BLOCK):
        block = source.window_block(start, stop)
        twins = np.max(np.abs(block - query), axis=1) <= epsilon
        total += int(np.count_nonzero(twins))
    return total


# ----------------------------------------------------------------------
# Planning
# ----------------------------------------------------------------------
def _plane_length(index: Any) -> int | None:
    """The plane's indexed window length ``l`` (``None`` when it cannot
    be determined without touching the plane's source — e.g. a foreign
    plane exposing neither a ``length`` nor a ``source``)."""
    length = getattr(index, "length", None)
    if length is not None:
        try:
            return int(length)
        except (TypeError, ValueError):
            return None
    source = getattr(index, "source", None)
    if source is None:
        return None
    return int(source.length)


@dataclasses.dataclass
class QueryPlan:
    """One negotiated execution plan: spec + plane + chosen kernels."""

    index: object
    spec: QuerySpec
    #: The plane's declared capability set.
    capabilities: frozenset
    #: Whether the spec's mode runs on a native plane kernel (False →
    #: the planner synthesizes it).
    native: bool
    #: Per-call options surviving capability filtering.
    options: dict
    #: Whether the plane itself accepts ``executor=`` fan-out.
    fan_out: bool
    #: Whether (any of) the spec's queries are shorter than the plane's
    #: window length — executed through the prefix kernels.
    varlength: bool = False

    def describe(self) -> str:
        """One diagnostic line (for logs and tests)."""
        return (
            f"mode={self.spec.mode} plane={type(self.index).__name__} "
            f"native={self.native} fan_out={self.fan_out} "
            f"varlength={self.varlength} options={sorted(self.options)}"
        )

    # ------------------------------------------------------------------
    def _queries(self) -> list:
        """The spec's queries, domain-mapped when they arrived raw.

        Index-domain queries are forwarded untouched — the plane's own
        kernel runs the (idempotent) preparation, exactly as a direct
        call would, so planned results stay byte-identical to direct
        ones.
        """
        if self.spec.domain == "raw":
            with current_trace().span("prepare", domain="raw"):
                try:
                    source = self.index.source
                except IndexNotBuiltError:
                    # A mutable plane before its first full window
                    # (live): nothing is indexed yet, and such planes
                    # reject the GLOBAL regime, so the raw→index
                    # mapping is the identity — the kernels validate
                    # the values themselves.
                    return self.spec.query_list()
                return list(self.spec.prepare(source).queries)
        return self.spec.query_list()

    def _call_options(self, executor: Any) -> dict:
        options = dict(self.options)
        if executor is not None and self.fan_out:
            options["executor"] = executor
        return options

    def _source_or_raise(self) -> Any:
        """The plane's window source (needed to synthesize a kernel);
        typed failure for planes that truly cannot serve the mode."""
        source = getattr(self.index, "source", None)
        if source is None:
            raise UnsupportedCapabilityError(
                f"{type(self.index).__name__} cannot serve "
                f"variable-length queries: it declares no native prefix "
                "kernel and exposes no window source to synthesize one "
                "from"
            )
        return source

    def _varlength_search(self, query: Any, executor: Any = None) -> SearchResult:
        """One variable-length search: the plane's native prefix kernel
        where declared, the synthesized prefix scan otherwise."""
        if CAP_VARLENGTH in self.capabilities:
            options = dict(self.options)
            if executor is not None and self.fan_out:
                options["executor"] = executor
            return self.index.search_varlength(
                query, self.spec.epsilon, **options
            )
        return scan_prefix_search(
            self._source_or_raise(), query, self.spec.epsilon, **self.options
        )

    def _execute_varlength(self, executor: Any) -> Any:
        """Run a plan whose quer(ies) are shorter than the plane's
        window length. ``search`` uses the native prefix kernel (or the
        synthesized scan); ``exists``/``count`` derive from that same
        search, so they reuse the plane's own pruned traversal; ``knn``
        is an exact prefix scan ranked by the library-wide
        ``(distance, position)`` tie-break; batches dispatch per query,
        so mixed-length workloads serve full-length members natively.
        """
        spec = self.spec
        length = _plane_length(self.index)
        if spec.mode == "batch":
            queries = self._queries()
            options = dict(self.options)

            def one(query: Any) -> SearchResult:
                if is_prefix_query(query, length):
                    return self._varlength_search(query)
                return self.index.search(query, spec.epsilon, **options)

            results = map_with_executor(executor, one, queries)
            return batch_result(results, spec.epsilon)

        query = self._queries()[0]
        if spec.mode == "search":
            return self._varlength_search(query, executor=executor)
        if spec.mode == "knn":
            try:
                source = self._source_or_raise()
            except IndexNotBuiltError:
                # A mutable plane before its first full window (live):
                # its own knn serves the prefix scan from the raw
                # readings without touching the unavailable source.
                return self.index.knn(query, spec.k, exclude=spec.exclude)
            return scan_prefix_knn(
                source, query, spec.k, exclude=spec.exclude
            )
        result = self._varlength_search(query, executor=executor)
        if spec.mode == "exists":
            return len(result) > 0
        return len(result)  # mode == "count"

    def execute(self, executor: Any = None) -> Any:
        """Run the plan; returns the mode's natural result type
        (:class:`SearchResult`, :class:`~repro.core.batch.BatchResult`,
        ``bool`` or ``int``)."""
        spec = self.spec
        if self.varlength:
            return self._execute_varlength(executor)
        if spec.mode == "batch":
            queries = self._queries()
            if self.native:
                return self.index.search_batch(
                    queries, spec.epsilon, **self._call_options(executor)
                )
            options = dict(self.options)

            def one(query: Any) -> SearchResult:
                return self.index.search(query, spec.epsilon, **options)

            # Synthesized batches fan out *at the planner level*, so
            # even planes with no concurrency support serve parallel
            # workloads.
            results = map_with_executor(executor, one, queries)
            return batch_result(results, spec.epsilon)

        query = self._queries()[0]
        if spec.mode == "search":
            return self.index.search(
                query, spec.epsilon, **self._call_options(executor)
            )
        if spec.mode == "knn":
            if self.native:
                options = self._call_options(executor)
                return self.index.knn(
                    query, spec.k, exclude=spec.exclude, **options
                )
            return scan_knn(
                self.index.source, query, spec.k, exclude=spec.exclude
            )
        if spec.mode == "exists":
            if self.native:
                return self.index.exists(query, spec.epsilon)
            return (
                len(self.index.search(query, spec.epsilon, **self.options))
                > 0
            )
        # mode == "count"
        if self.native:
            if executor is not None and self.fan_out:
                # Composite planes (sharded, live) sum per-part counts;
                # the parts fan out exactly like a search would.
                return self.index.count(
                    query, spec.epsilon, executor=executor
                )
            return self.index.count(query, spec.epsilon)
        # Search-backed synthesis: the plane's own (pruned) traversal
        # beats an exhaustive scan on every indexed plane; callers who
        # need bounded memory on huge result sets use scan_count.
        return len(self.index.search(query, spec.epsilon, **self.options))


#: Capability a mode needs to run natively.
_MODE_CAPABILITY = {
    "search": None,  # mandatory: every plane brings search
    "knn": CAP_KNN,
    "exists": CAP_EXISTS,
    "count": CAP_COUNT,
    "batch": CAP_SEARCH_BATCH,
}


def plan(index: Any, spec: QuerySpec) -> QueryPlan:
    """Negotiate ``spec`` against ``index``'s declared capabilities.

    Queries shorter than the plane's window length plan onto the
    variable-length path: ``search`` (and the search-derived
    ``exists``/``count``) runs on the plane's native prefix kernel when
    it declares :data:`~repro.query.capabilities.CAP_VARLENGTH`, the
    synthesized prefix scan otherwise; ``knn`` is always the exact
    prefix scan; batches dispatch per query. Targets that are not query
    planes at all (no ``search`` kernel) fail with the typed
    :class:`~repro.exceptions.UnsupportedCapabilityError` instead of an
    ``AttributeError`` deep inside a kernel.
    """
    if not callable(getattr(index, "search", None)):
        raise UnsupportedCapabilityError(
            f"{type(index).__name__} is not a query plane: it has no "
            "search kernel"
        )
    caps = capabilities_of(index)
    required = _MODE_CAPABILITY[spec.mode]
    native = required is None or required in caps
    options = dict(spec.options)
    if CAP_VERIFICATION not in caps:
        options.pop("verification", None)
    if CAP_BATCHED_KERNEL not in caps:
        options.pop("batched", None)
    if CAP_FANOUT_TIMEOUT not in caps:
        # Only fan-out planes can bound their parts with a deadline or
        # answer degraded; everywhere else the options are meaningless.
        options.pop("timeout", None)
        options.pop("degraded", None)
    varlength = False
    length = _plane_length(index)
    if length is not None:
        varlength = any(
            is_prefix_query(query, length) for query in spec.query_list()
        )
    if varlength:
        # The prefix kernels serve search (and the search-derived
        # modes); nothing batched-kernel-shaped applies (and the prefix
        # kernels take no fan-out deadline), and ``native`` now reports
        # whether the *prefix* kernel is the plane's own.
        options.pop("batched", None)
        options.pop("timeout", None)
        options.pop("degraded", None)
        native = CAP_VARLENGTH in caps and spec.mode != "knn"
    if spec.mode in ("knn", "exists", "count") and not varlength:
        # These modes take no kernel options — ``verification``/
        # ``batched`` parameterize the search kernels only, and no
        # plane's native knn accepts them either.
        options = {}
    plans_total, varlength_total = _metrics()
    plans_total.labels(mode=spec.mode, native=str(native).lower()).inc()
    if varlength:
        varlength_total.inc()
    return QueryPlan(
        index=index,
        spec=spec,
        capabilities=caps,
        native=native,
        options=options,
        fan_out=CAP_EXECUTOR in caps,
        varlength=varlength,
    )


def execute(index: Any, spec: QuerySpec, *, executor: Any = None) -> Any:
    """Plan and run ``spec`` against ``index`` in one call."""
    return plan(index, spec).execute(executor=executor)
