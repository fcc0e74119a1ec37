"""The perfbench workloads: inputs, the closed-loop client and the replay.

Three workloads, each driven by one closed-loop client (the next
operation is sent when the previous one returns) through one
``QueryEngine(max_workers=nproc)``:

``selective``
    A frozen sharded plane built by ``engine.build`` with its defaults
    (global z-normalization) over the first ``STATIC_POINTS`` readings
    of the insect surrogate, searched at ε = 0.5. The median query's
    only twin is itself, yet about a tenth of the windows are verified:
    pruning power and the result cache show here.
``broad``
    The same plane at ε = 1.5 with every query distinct: about half the
    windows are candidates, so gather, verify and merge dominate and
    the cache never hits.
``live-ingest``
    The whole raw series fed into a durable ``LiveTwinIndex`` (library
    defaults) behind ``engine.add_live``: 5,000 initial readings, then
    64-reading appends with reads in between, so writes run beside
    reads through the WAL, delta inserts, seals, compaction and
    segment fan-out.

The timed pass (``--trace 0``) only calls the engine. The traced pass
(``--trace 1``) runs a fixed operation list twice: once untimed-by-span
to get the untraced latency, then again with every search replayed
through the layers' public calls in the order the plane makes them.
"""

from __future__ import annotations

import concurrent.futures
import dataclasses
import itertools
import os
import resource
import shutil
import statistics
import time
import traceback
from collections.abc import Callable
from typing import Any

import numpy as np

from repro.core import QueryStats, TSIndex, WindowSource, verify
from repro.data import load_dataset
from repro.engine import QueryEngine, ShardedTSIndex
from repro.indices import SweeplineSearch
from repro.live import LiveTwinIndex
from repro.persistence import save_index
from repro.query import (
    QuerySpec,
    merge_offset_search,
    plan,
    prefix_source,
    scan_knn,
    tail_positions,
    verify_prefix,
)

from .gate import GateError, check_distances, check_positions, check_series
from .spans import SpanRecorder, self_times
from .stats import KINDS, UNGATED_METRICS, median, summarize

#: Window length ``l`` of every plane.
LENGTH = 100
#: Readings of the static planes: the first eighth of the surrogate.
#: Building the paper-size plane takes 15 to 30 s and one exhaustive
#: scan 110 to 160 ms on a 2-vCPU box, which does not fit the run
#: budget; the candidate shares (about 11% at ε = 0.5, 49% at 1.5)
#: match the full series.
STATIC_POINTS = 8192
HOT_QUERIES = 16
BATCH_SIZE = 8
VARLENGTH_M = 50
KNN_K = 5
#: Set-ups per live timed run; ``setup_s`` is their median.
SETUPS = 3
#: Operations in each pass of a static traced run (fixed, so the
#: counters repeat exactly for a seed).
TRACED_OPS = 300

LIVE_INITIAL = 5000
LIVE_CHUNK = 64
#: One read after every 2nd append, its kind cycling through
#: ``LIVE_READS``: per 16 reads, 10 searches, 2 varlength, 2 batches,
#: 1 k-NN and 1 scan (290 searches and at least 29 of each kind per
#: pass).
LIVE_READ_EVERY = 2
LIVE_READS = (
    "search", "varlength", "search", "batch", "search", "knn", "search", "search",
    "varlength", "search", "batch", "search", "scan", "search", "search", "search",
)

READ_KINDS = ("search", "varlength", "batch", "knn", "scan")


@dataclasses.dataclass(frozen=True)
class StaticMix:
    """One read-only workload over the static plane.

    Operations come in blocks of ``sum(block.values())``, shuffled per
    block, so every run has exactly the stated shares.
    """

    epsilon: float
    #: Operations of each kind per block.
    block: dict[str, int]
    #: Searches per block that repeat one of ``HOT_QUERIES`` queries.
    hot_per_block: int


STATIC_MIXES = {
    "selective": StaticMix(
        epsilon=0.5,
        block={"search": 28, "varlength": 4, "batch": 4, "knn": 2, "scan": 2},
        hot_per_block=7,
    ),
    "broad": StaticMix(
        epsilon=1.5,
        block={"search": 30, "batch": 4, "scan": 2, "varlength": 2, "knn": 2},
        hot_per_block=0,
    ),
}
WORKLOADS = ("selective", "broad", "live-ingest")


@dataclasses.dataclass
class Op:
    """One client operation; ``positions`` pick its query windows."""

    kind: str
    positions: tuple[int, ...]


@dataclasses.dataclass
class Outcome:
    """What one executed operation took and returned."""

    kind: str
    #: Wall-clock seconds.
    seconds: float
    #: Process CPU seconds, all threads (stolen time excluded).
    cpu: float
    queries: list
    results: list | None
    error: str | None = None
    #: Cache hit (searches only).
    hit: bool = False
    #: Readings the plane held when a live read ran.
    readings: int = 0


def cpu_count() -> int:
    return len(os.sched_getaffinity(0))


def load_series() -> np.ndarray:
    """The insect surrogate every workload reads, digest-checked."""
    values = np.asarray(load_dataset("insect").values, dtype=np.float64)
    check_series(values)
    return values


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def directory_bytes(path: str) -> int:
    return sum(
        os.path.getsize(os.path.join(root, name))
        for root, _, names in os.walk(path)
        for name in names
    )


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
#: Golden-ratio step: any prefix of ``frac(start + i * GOLDEN)`` covers
#: [0, 1) evenly, so the queries of a short run already span the series
#: and the seed moves only where the cover starts.
GOLDEN = (5 ** 0.5 - 1) / 2


class Positions:
    """Distinct window positions drawn from golden-ratio sequences."""

    def __init__(self, rng: np.random.Generator, windows: int):
        self.rng = rng
        self.windows = windows
        self.used: set[int] = set()

    def stream(self):
        """Unused positions in golden-ratio order from a random start,
        until every window is used."""
        for fraction in fractions(self.rng):
            if len(self.used) == self.windows:
                return
            position = int(fraction * self.windows)
            if position not in self.used:
                self.used.add(position)
                yield position


def fractions(rng: np.random.Generator):
    """Endless golden-ratio fractions in [0, 1) from a random start."""
    start = rng.random()
    step = 0
    while True:
        yield (start + step * GOLDEN) % 1.0
        step += 1


def static_ops(seed: int, mix: StaticMix, windows: int) -> tuple[list[Op], list[int]]:
    """A seeded operation list and warm-up positions for a static plane.

    Each kind draws its query windows from its own even cover of the
    series, and no window is used twice, so apart from the hot set no
    query repeats within a run. The list uses at most half the windows.
    """
    rng = np.random.default_rng(seed)
    positions = Positions(rng, windows)
    warmup_stream = positions.stream()
    warmup = [next(warmup_stream) for _ in range(2 * BATCH_SIZE)]
    hot_stream = positions.stream()
    hot = [next(hot_stream) for _ in range(HOT_QUERIES)]
    streams = {kind: positions.stream() for kind in mix.block}
    kinds = [kind for kind, count in mix.block.items() for _ in range(count)]
    ops: list[Op] = []
    while len(positions.used) < windows // 2:
        searches = 0
        for kind in rng.permutation(kinds).tolist():
            if kind == "search":
                searches += 1
                if searches <= mix.hot_per_block:
                    ops.append(Op(kind, (hot[int(rng.integers(HOT_QUERIES))],)))
                    continue
            count = BATCH_SIZE if kind == "batch" else 1
            ops.append(Op(kind, tuple(next(streams[kind]) for _ in range(count))))
    return ops, warmup


def queries_for(kind: str, positions, window: Callable[[int], np.ndarray]) -> list:
    queries = [np.array(window(int(p)), dtype=np.float64) for p in positions]
    if kind == "varlength":
        queries = [query[:VARLENGTH_M].copy() for query in queries]
    return queries


# ----------------------------------------------------------------------
# The client
# ----------------------------------------------------------------------
class Client:
    """Sends operations to one engine and times each call."""

    def __init__(self, engine: QueryEngine, index: str, epsilon: float):
        self.engine = engine
        self.index = index
        self.epsilon = epsilon
        self.failed = 0

    def call(self, kind: str, queries: list) -> list:
        engine, eps = self.engine, self.epsilon
        if kind in ("search", "varlength"):
            return [engine.query(self.index, queries[0], eps)]
        if kind == "batch":
            return list(engine.batch(self.index, queries, eps).results)
        if kind == "knn":
            return [engine.knn(self.index, queries[0], KNN_K)]
        if kind == "scan":
            return [engine.query("scan", queries[0], eps)]
        raise ValueError(f"unknown operation kind {kind!r}")

    def run(self, kind: str, queries: list) -> Outcome:
        hits = self.engine.cache.stats().hits
        outcome = measure(kind, queries, lambda: self.call(kind, queries))
        if outcome.error is not None:
            self.failed += 1
        else:
            outcome.hit = self.engine.cache.stats().hits > hits
        return outcome


def measure(kind: str, queries: list, call: Callable[[], list]) -> Outcome:
    """Run ``call``, timing it on the wall clock and in process CPU time.

    CPU time covers every thread of the process (the engine's fan-out
    workers and the live plane's compactor included) and, with
    paravirtual steal accounting, leaves out time the host took the
    vCPU away, which on a shared VM moves wall-clock latencies of this
    engine by up to half between minutes. An exception counts the
    operation as failed.
    """
    wall, cpu = time.perf_counter(), time.process_time()
    try:
        results, error = call(), None
    except Exception:  # an operation that raises counts as failed
        results, error = None, traceback.format_exc()
    return Outcome(
        kind, time.perf_counter() - wall, time.process_time() - cpu,
        queries, results, error,
    )


# ----------------------------------------------------------------------
# The replay: one search through the layers' public calls
# ----------------------------------------------------------------------
def plane_parts(plane) -> list[tuple[int, Any, str]]:
    """``(offset, index, kind)`` for every part the plane fans out over."""
    if isinstance(plane, ShardedTSIndex):
        return [
            (start, shard, "frozen")
            for (start, _), shard in zip(plane.spans, plane.shards)
        ]
    parts = [(segment.start, segment.index, "segment") for segment in plane.segments]
    delta = plane.delta
    if delta is not None:
        parts.append((plane.window_count - plane.delta_windows, delta, "delta"))
    return parts


@dataclasses.dataclass
class ReplayCounters:
    """Structural counters summed over the frozen parts of replays."""

    queries: int = 0
    windows: int = 0
    stats: QueryStats = dataclasses.field(default_factory=QueryStats)
    segments: int = 0
    delta_windows: int = 0


def replay_search(
    recorder: SpanRecorder,
    plane,
    query: np.ndarray,
    epsilon: float,
    counters: ReplayCounters,
):
    """Recompute one search the way the plane does, one span per call:
    prepare, plan, per part traverse / gather / verify, then merge."""
    with recorder.span("replay"):
        spec = QuerySpec(
            query=query, mode="search", epsilon=epsilon,
            options={"verification": "bulk"},
        )
        with recorder.span("query.spec.prepare"):
            prepared = spec.prepare(plane.source).query
        with recorder.span("query.planner.plan"):
            plan(plane, spec)
        m = prepared.size
        prefix = m < plane.length
        parts = []
        counters.queries += 1
        for offset, part, kind in plane_parts(plane):
            stats = QueryStats()
            layer = "core.tsindex" if kind == "delta" else "core.frozen"
            with recorder.span("part", kind=kind):
                with recorder.span(f"{layer}.traverse"):
                    candidates = part.collect_varlength_candidates(prepared, epsilon, stats)
                gather = prefix_source(part.source, m) if prefix else part.source
                with recorder.span("core.windows.gather"):
                    gather.windows(np.sort(candidates))
                with recorder.span("core.verification.verify"):
                    if prefix:
                        result = verify_prefix(
                            part.source, prepared, candidates, epsilon, stats=stats
                        )
                    else:
                        result = verify(
                            part.source, prepared, candidates, epsilon,
                            mode="bulk", stats=stats,
                        )
            parts.append((offset, result))
            if kind == "delta":
                counters.delta_windows += part.size
            else:
                counters.stats = counters.stats.merge(stats)
                counters.windows += part.size
                counters.segments += kind == "segment"
        if prefix:
            tail = tail_positions(plane.source, m)
            with recorder.span("part", kind="tail"):
                with recorder.span("core.verification.verify"):
                    parts.append(
                        (0, verify_prefix(plane.source, prepared, tail, epsilon))
                    )
        with recorder.span("query.merge.merge"):
            return merge_offset_search(parts)


class TracedClient(Client):
    """A client that wraps each call in a span and replays searches."""

    def __init__(self, engine, index, epsilon, plane_of: Callable[[], Any]):
        super().__init__(engine, index, epsilon)
        self.recorder = SpanRecorder()
        self.counters = ReplayCounters()
        self.plane_of = plane_of
        self.knn_verified: list[int] = []

    def run(self, kind: str, queries: list) -> Outcome:
        recorder = self.recorder
        recorder.new_request()
        with recorder.span("request", kind=kind):
            with recorder.span(f"engine.{kind}") as call:
                outcome = super().run(kind, queries)
            call.attrs["hit"] = outcome.hit
            if outcome.results is None:
                return outcome
            if kind in ("search", "varlength", "batch"):
                plane = self.plane_of()
                for query, got in zip(queries, outcome.results):
                    replayed = replay_search(
                        recorder, plane, query, self.epsilon, self.counters
                    )
                    check_positions(f"replayed {kind}", replayed.positions, got.positions)
            elif kind == "scan":
                scan = self.engine.registry.get("scan")
                with recorder.span("indices.sweepline.scan"):
                    scan.search(queries[0], self.epsilon)
            elif kind == "knn":
                self.knn_verified.append(outcome.results[0].stats.verified)
        return outcome


# ----------------------------------------------------------------------
# Oracle checks
# ----------------------------------------------------------------------
def check_static(outcomes: list[Outcome], scan: SweeplineSearch, epsilon: float) -> None:
    """Every search, varlength and batch answer must equal the sweepline
    oracle's positions, and every k-NN the scan's distances."""
    wanted: dict[tuple[str, bytes], Any] = {}
    checks = []
    with concurrent.futures.ThreadPoolExecutor(cpu_count()) as pool:
        for outcome in outcomes:
            if outcome.results is None or outcome.kind == "scan":
                continue
            mode = "knn" if outcome.kind == "knn" else "search"
            for query, got in zip(outcome.queries, outcome.results):
                key = (mode, query.tobytes())
                if key not in wanted:
                    if mode == "knn":
                        wanted[key] = pool.submit(scan_knn, scan.source, query, KNN_K)
                    else:
                        wanted[key] = pool.submit(scan.search, query, epsilon)
                checks.append((outcome.kind, got, wanted[key]))
        for kind, got, future in checks:
            want = future.result()
            if kind == "knn":
                check_distances(kind, got.distances, want.distances)
            else:
                check_positions(kind, got.positions, want.positions)


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def samples(outcomes: list[Outcome]) -> dict:
    """Per-kind wall and CPU latencies (ms; a batch's per query) of
    successful operations, plus the operation count and the wall and
    CPU time spent in them."""
    wall: dict[str, list[float]] = {kind: [] for kind in KINDS}
    cpu: dict[str, list[float]] = {kind: [] for kind in KINDS}
    for outcome in outcomes:
        if outcome.error is None:
            share = BATCH_SIZE if outcome.kind == "batch" else 1
            wall[outcome.kind].append(outcome.seconds * 1e3 / share)
            cpu[outcome.kind].append(outcome.cpu * 1e3 / share)
    return {
        "ms": wall,
        "cpu_ms": cpu,
        "ops": len(outcomes),
        "busy_s": sum(outcome.seconds for outcome in outcomes),
        "cpu_s": sum(outcome.cpu for outcome in outcomes),
    }


def read_metrics(outcomes: list[Outcome]) -> dict[str, float]:
    """Latency and throughput figures of one pass."""
    return summarize([samples(outcomes)])


def layer_metrics(client: TracedClient) -> dict[str, float]:
    """Per-layer figures from the traced pass's spans and counters."""
    spans = client.recorder.spans
    own = self_times(spans)
    by_id = {span.id: span for span in spans}
    total: dict[str, float] = {}
    for span in spans:
        key = span.name
        if span.name == "part":
            key = f"part.{span.attrs['kind']}"
        total[key] = total.get(key, 0.0) + own[span.id]
    counters = client.counters
    queries = max(1, counters.queries)

    def per_query_ms(name: str) -> float:
        return total.get(name, 0.0) * 1e3 / queries

    # A part's own time is its gather/traverse/verify children; the
    # part span's self time is bookkeeping. Gather is replayed as a
    # separate call, so it is taken out of verify and of the part.
    gather_by_part: dict[str, float] = {}
    part_time: dict[str, float] = {}
    for span in spans:
        if span.name == "part":
            kind = span.attrs["kind"]
            part_time[kind] = part_time.get(kind, 0.0) + span.duration
        elif span.name == "core.windows.gather":
            kind = by_id[span.parent].attrs["kind"]
            gather_by_part[kind] = gather_by_part.get(kind, 0.0) + span.duration

    # engine.executor.self_ms: engine search time on cache misses minus
    # the replayed layers of the same queries (gather excluded, since
    # the engine's verify does its own).
    by_request: dict[int, list] = {}
    for span in spans:
        by_request.setdefault(span.request, []).append(span)
    engine_ms, replay_ms, misses = 0.0, 0.0, 0
    for span in spans:
        if span.name != "request" or span.attrs["kind"] not in ("search", "varlength"):
            continue
        children = by_request[span.request]
        call = next(s for s in children if s.name.startswith("engine."))
        if call.attrs["hit"]:
            continue
        replay = next(s for s in children if s.name == "replay")
        gathers = sum(
            s.duration for s in children if s.name == "core.windows.gather"
        )
        engine_ms += call.duration * 1e3
        replay_ms += (replay.duration - gathers) * 1e3
        misses += 1

    stats = counters.stats
    gather_total = sum(gather_by_part.values())
    return {
        "core.frozen.traverse_ms": per_query_ms("core.frozen.traverse"),
        "core.frozen.nodes_visited": stats.nodes_visited / queries,
        "core.frozen.nodes_pruned": stats.nodes_pruned / queries,
        "core.frozen.leaves_accessed": stats.leaves_accessed / queries,
        "core.frozen.candidates": stats.candidates / queries,
        "core.frozen.candidate_ratio": (
            stats.candidates / counters.windows if counters.windows else 0.0
        ),
        "core.frozen.twins_per_candidate": (
            stats.matches / stats.candidates if stats.candidates else 0.0
        ),
        "core.frozen.knn_verified": (
            statistics.fmean(client.knn_verified) if client.knn_verified else 0.0
        ),
        "core.windows.gather_ms": gather_total * 1e3 / queries,
        "core.verification.verify_ms": (
            total.get("core.verification.verify", 0.0) - gather_total
        ) * 1e3 / queries,
        "query.spec.prepare_ms": per_query_ms("query.spec.prepare"),
        "query.planner.plan_ms": per_query_ms("query.planner.plan"),
        "query.merge.merge_ms": per_query_ms("query.merge.merge"),
        "engine.executor.self_ms": (engine_ms - replay_ms) / misses if misses else 0.0,
        "indices.sweepline.scan_ms": median(
            [s.duration * 1e3 for s in spans if s.name == "indices.sweepline.scan"]
        ),
        "live.index.segments_at_query": counters.segments / queries,
        "live.index.delta_windows_at_query": counters.delta_windows / queries,
        "live.index.segment_search_ms": (
            part_time.get("segment", 0.0) - gather_by_part.get("segment", 0.0)
        ) * 1e3 / queries,
        "core.tsindex.delta_search_ms": (
            part_time.get("delta", 0.0) - gather_by_part.get("delta", 0.0)
        ) * 1e3 / queries,
    }


class Usage:
    """getrusage deltas over a pass."""

    def __init__(self) -> None:
        self.start = resource.getrusage(resource.RUSAGE_SELF)

    def per_op(self, ops: int) -> dict[str, float]:
        end = resource.getrusage(resource.RUSAGE_SELF)
        cpu = (end.ru_utime - self.start.ru_utime) + (end.ru_stime - self.start.ru_stime)
        faults = end.ru_minflt - self.start.ru_minflt
        ops = max(1, ops)
        return {
            "process.cpu_s_per_op": cpu / ops,
            "process.minor_faults_per_op": faults / ops,
        }


def replay_build(recorder: SpanRecorder, sources: list[WindowSource], params) -> list:
    """Build and freeze one tree per source through the core layer."""
    frozen = []
    for source in sources:
        with recorder.span("core.tsindex.build"):
            tree = TSIndex.from_source(source, params=params)
        with recorder.span("core.frozen.freeze"):
            frozen.append(tree.freeze())
    return frozen


def build_metrics(recorder: SpanRecorder) -> dict[str, float]:
    def seconds(name: str) -> float:
        return sum(s.duration for s in recorder.spans if s.name == name)

    return {
        "core.tsindex.build_s": seconds("core.tsindex.build"),
        "core.frozen.freeze_s": seconds("core.frozen.freeze"),
    }


def archive_bytes(indexes: list, work: str) -> int:
    """Bytes of npz archives written by ``save_index`` for ``indexes``."""
    total = 0
    path = os.path.join(work, "archive.npz")
    for index in indexes:
        save_index(index, path, format="npz", fsync=False)
        total += os.path.getsize(path)
        os.remove(path)
    return total


# ----------------------------------------------------------------------
# Static workloads
# ----------------------------------------------------------------------
class StaticBench:
    """``selective`` / ``broad``: reads over one frozen sharded plane."""

    def __init__(self, name: str, seed: int, points: int = STATIC_POINTS):
        self.mix = STATIC_MIXES[name]
        self.series = load_series()[:points]
        self.seed = seed
        self.engine: QueryEngine | None = None

    def setup(self) -> float:
        """Engine plus plane plus scan plane; returns seconds taken."""
        self.close()
        started = time.perf_counter()
        engine = QueryEngine(max_workers=cpu_count())
        engine.build("index", self.series, LENGTH)
        engine.build("scan", self.series, LENGTH, method="sweepline")
        seconds = time.perf_counter() - started
        self.engine = engine
        return seconds

    def close(self) -> None:
        if self.engine is not None:
            self.engine.close()
            self.engine = None

    @property
    def plane(self) -> ShardedTSIndex:
        return self.engine.registry.get("index")

    def ops(self) -> tuple[list[Op], list[int]]:
        return static_ops(self.seed, self.mix, self.plane.source.count)

    def execute(self, client: Client, ops, deadline: float | None = None) -> list[Outcome]:
        """Run ``ops`` (a list, or an iterator shared between calls) in
        order until they run out or ``deadline`` passes."""
        window = self.plane.source.window
        outcomes = []
        ops = iter(ops)
        while deadline is None or time.perf_counter() < deadline:
            op = next(ops, None)
            if op is None:
                break
            outcomes.append(client.run(op.kind, queries_for(op.kind, op.positions, window)))
        return outcomes

    def warm_up(self, positions: list[int]) -> None:
        client = Client(self.engine, "index", self.mix.epsilon)
        window = self.plane.source.window
        for kind in READ_KINDS:
            picked = positions[:BATCH_SIZE] if kind == "batch" else positions[:1]
            positions = positions[len(picked):] or positions
            outcome = client.run(kind, queries_for(kind, picked, window))
            if outcome.error:
                raise GateError(f"warm-up {kind} failed:\n{outcome.error}")

    def timed_part(self, seconds: float, part: int, parts: int) -> dict:
        """One share of a timed run, meant for its own fresh interpreter:
        set up, warm up, then ``seconds`` of closed-loop operations from
        the ``part``-th of ``parts`` slices of the seeded operation list,
        checked against the oracle. Returns the raw samples.

        A part that gets through its slice starts it again; the slice
        holds far more distinct queries than the engine's 256-entry LRU
        cache, so the repeats miss like fresh queries."""
        setup = self.setup()
        listed, warmup = self.ops()
        share = len(listed) // parts
        ops = itertools.cycle(listed[part * share:(part + 1) * share])
        self.warm_up(warmup)
        client = Client(self.engine, "index", self.mix.epsilon)
        outcomes = self.execute(client, ops, time.perf_counter() + seconds)
        peak = peak_rss_mb()
        check_static(outcomes, self.engine.registry.get("scan"), self.mix.epsilon)
        return {
            "setup_s": setup,
            "peak_rss_mb": peak,
            "failed": client.failed,
            **samples(outcomes),
        }

    def traced(self, work: str, ops_count: int = TRACED_OPS) -> tuple[dict[str, float], int, int, SpanRecorder]:
        self.setup()
        plane = self.plane
        builds = SpanRecorder()
        sources = [plane.source.shard(start, stop) for start, stop in plane.spans]
        rebuilt = replay_build(builds, sources, plane.params)
        for tree, shard in zip(rebuilt, plane.shards):
            if tree.node_count != shard.node_count:
                raise GateError("replayed shard build differs from the engine's")
        ops, warmup = self.ops()
        ops = ops[:ops_count]
        self.warm_up(warmup)

        self.engine.cache.clear()
        usage = Usage()
        plain = Client(self.engine, "index", self.mix.epsilon)
        untraced = self.execute(plain, ops)
        process = usage.per_op(len(untraced))

        self.engine.cache.clear()
        before = self.engine.cache.stats()
        client = TracedClient(self.engine, "index", self.mix.epsilon, lambda: plane)
        traced = self.execute(client, ops)
        after = self.engine.cache.stats()
        scan = self.engine.registry.get("scan")
        check_static(untraced + traced, scan, self.mix.epsilon)

        untimed = read_metrics(untraced)
        timed = read_metrics(traced)
        lookups = (after.hits + after.misses) - (before.hits + before.misses)
        metrics = layer_metrics(client)
        metrics.update(build_metrics(builds))
        metrics.update(process)
        metrics.update(
            {
                "engine.cache.hit_rate": (after.hits - before.hits) / lookups if lookups else 0.0,
                "indices.sweepline.index_over_scan": untimed["search_p50_ms"] / untimed["scan_p50_ms"],
                "bench.tracing_overhead": timed["search_p50_ms"] / untimed["search_p50_ms"],
                "persistence.archive_bytes_per_reading": (
                    archive_bytes([plane], work) / (self.series.size * 8)
                ),
            }
        )
        metrics.update(LIVE_ONLY_ZEROS)
        metrics.update({name: untimed[name] for name in UNGATED_METRICS})
        failed = plain.failed + client.failed
        return metrics, len(untraced) + len(traced), failed, client.recorder


#: Live-plane figures a static workload has no work for.
LIVE_ONLY_ZEROS = {
    "live.index.append_ms": 0.0,
    "live.index.seal_append_ms": 0.0,
    "live.index.seals": 0.0,
    "live.index.compactions": 0.0,
    "live.index.compact_s": 0.0,
    "ingest_readings_per_s": 0.0,
    "append_p50_ms": 0.0,
    "append_p95_ms": 0.0,
    "disk_bytes_per_reading": 0.0,
}


# ----------------------------------------------------------------------
# Live ingest
# ----------------------------------------------------------------------
class LiveBench:
    """``live-ingest``: appends and reads on one durable live plane."""

    def __init__(self, seed: int, work: str, points: int | None = None, initial: int = LIVE_INITIAL):
        series = load_series()
        self.series = series if points is None else series[:points]
        self.initial = initial
        self.seed = seed
        self.work = work
        self.epsilon = 0.5 * float(np.std(self.series))
        self.engine: QueryEngine | None = None
        self.live: LiveTwinIndex | None = None
        self._dirs = 0

    def setup(self) -> float:
        """Engine plus a fresh durable live plane with the initial
        readings; returns seconds taken."""
        self.close()
        self._dirs += 1
        path = os.path.join(self.work, f"live-{self._dirs}")
        started = time.perf_counter()
        engine = QueryEngine(max_workers=cpu_count())
        live = LiveTwinIndex.create(path, self.series[: self.initial], length=LENGTH)
        engine.add_live("live", live)
        seconds = time.perf_counter() - started
        self.engine, self.live = engine, live
        return seconds

    def close(self) -> None:
        if self.live is not None:
            self.live.close()
            shutil.rmtree(self.live.directory, ignore_errors=True)
            self.live = None
        if self.engine is not None:
            self.engine.close()
            self.engine = None

    def read(self, client: Client, kind: str, stream) -> Outcome:
        """One read over the readings appended so far; query windows
        come from ``stream``'s fractions of the current window count."""
        values = self.live.values
        windows = values.size - LENGTH + 1
        count = BATCH_SIZE if kind == "batch" else 1
        positions = [int(next(stream) * windows) for _ in range(count)]
        queries = queries_for(kind, positions, lambda p: values[p:p + LENGTH])
        if kind == "scan":
            self.engine.build(
                "scan", np.array(values), LENGTH, method="sweepline",
                normalization="none", overwrite=True,
            )
        outcome = client.run(kind, queries)
        outcome.readings = values.size
        return outcome

    def check(self, outcomes: list[Outcome]) -> None:
        """Every search, varlength, batch and k-NN answer against a
        sweepline (or scan k-NN) over the readings it saw, which are a
        prefix of the series."""
        jobs = []
        scan = None
        with concurrent.futures.ThreadPoolExecutor(cpu_count()) as pool:
            for outcome in outcomes:
                if outcome.results is None or outcome.kind in ("append", "scan"):
                    continue
                if scan is None or scan.source.values.size != outcome.readings:
                    scan = SweeplineSearch.build(
                        self.series[: outcome.readings], LENGTH, normalization="none"
                    )
                for query, got in zip(outcome.queries, outcome.results):
                    if outcome.kind == "knn":
                        want = pool.submit(scan_knn, scan.source, query, KNN_K)
                    else:
                        want = pool.submit(scan.search, query, self.epsilon)
                    jobs.append((outcome.kind, got, want))
            for kind, got, want in jobs:
                if kind == "knn":
                    check_distances("live knn", got.distances, want.result().distances)
                else:
                    check_positions(f"live {kind}", got.positions, want.result().positions)

    def ingest(self, client: Client) -> tuple[list[Outcome], list[bool]]:
        """One pass: append the rest of the series, reading in between."""
        rng = np.random.default_rng(self.seed)
        streams = {kind: fractions(rng) for kind in READ_KINDS}
        outcomes: list[Outcome] = []
        sealed: list[bool] = []
        position = self.initial
        appends = 0
        reads = 0
        while position < self.series.size:
            chunk = self.series[position:position + LIVE_CHUNK]
            position += chunk.size
            seals = self.live.seal_count
            outcomes.append(self.append(client, chunk))
            sealed.append(self.live.seal_count > seals)
            appends += 1
            if appends % LIVE_READ_EVERY == 0:
                kind = LIVE_READS[reads % len(LIVE_READS)]
                reads += 1
                outcomes.append(self.read(client, kind, streams[kind]))
        return outcomes, sealed

    def append(self, client: Client, chunk: np.ndarray) -> Outcome:
        if isinstance(client, TracedClient):
            client.recorder.new_request()
            with client.recorder.span("live.index.append"):
                return self._append(client, chunk)
        return self._append(client, chunk)

    def _append(self, client: Client, chunk: np.ndarray) -> Outcome:
        outcome = measure("append", [], lambda: [self.engine.append("live", chunk)])
        if outcome.error is not None:
            client.failed += 1
        return outcome

    def finish(self) -> tuple[float, float]:
        """Compact, check the final answer against a sweepline over
        ``live.values``, close; returns (compact seconds, bytes per
        input reading on disk)."""
        started = time.perf_counter()
        self.live.compact()
        compact_s = time.perf_counter() - started
        rng = np.random.default_rng(self.seed + 1)
        values = np.array(self.live.values)
        if values.size != self.series.size or not np.array_equal(values, self.series):
            raise GateError("live plane holds other readings than were appended")
        position = int(rng.integers(0, values.size - LENGTH + 1))
        query = values[position:position + LENGTH].copy()
        got = self.engine.query("live", query, self.epsilon)
        want = SweeplineSearch.build(values, LENGTH, normalization="none").search(query, self.epsilon)
        check_positions("final live query", got.positions, want.positions)
        directory = self.live.directory
        self.live.close()
        disk = directory_bytes(directory) / (values.size * 8)
        return compact_s, disk

    def warm_up(self) -> None:
        """Every operation kind once, on a throwaway plane."""
        self.setup()
        client = Client(self.engine, "live", self.epsilon)
        stream = fractions(np.random.default_rng(self.seed + 2))
        position = self.initial
        for _ in range(4):
            outcome = self.append(client, self.series[position:position + LIVE_CHUNK])
            position += LIVE_CHUNK
            if outcome.error:
                raise GateError(f"warm-up append failed:\n{outcome.error}")
        outcomes = [self.read(client, kind, stream) for kind in READ_KINDS]
        for outcome in outcomes:
            if outcome.error:
                raise GateError(f"warm-up {outcome.kind} failed:\n{outcome.error}")
        self.check(outcomes)

    def timed(self) -> tuple[dict[str, float], int, int]:
        """Warm up, set up ``SETUPS`` times, then one full ingest pass
        (the unit of work, whatever ``--seconds`` says)."""
        self.warm_up()
        setups = [self.setup() for _ in range(SETUPS)]
        client = Client(self.engine, "live", self.epsilon)
        outcomes, _ = self.ingest(client)
        self.finish()
        peak = peak_rss_mb()
        self.check(outcomes)
        metrics = read_metrics(outcomes)
        metrics["setup_s"] = median(setups)
        metrics["peak_rss_mb"] = peak
        return metrics, len(outcomes), client.failed

    def traced(self, work: str) -> tuple[dict[str, float], int, int, SpanRecorder]:
        del work
        self.warm_up()
        builds = SpanRecorder()
        initial = WindowSource(self.series[: self.initial], LENGTH, "none")
        replay_build(builds, [initial], self.live.params)

        self.setup()
        usage = Usage()
        plain = Client(self.engine, "live", self.epsilon)
        untraced, _ = self.ingest(plain)
        process = usage.per_op(len(untraced))
        compact_s, disk = self.finish()
        self.check(untraced)

        self.setup()
        before = self.engine.cache.stats()
        client = LiveTracedClient(self.engine, "live", self.epsilon, lambda: self.live)
        traced, sealed = self.ingest(client)
        after = self.engine.cache.stats()
        live = self.live
        live.compact()
        seals, compactions = live.seal_count, live.compaction_count
        archives = archive_bytes([s.index for s in live.segments], self.work)
        if live.delta is not None:
            archives += archive_bytes([live.delta.freeze()], self.work)
        self.finish()
        self.check(traced)

        appends = [o for o in traced if o.kind == "append"]
        plain_appends = [o.seconds for o in untraced if o.kind == "append" and o.error is None]
        untimed = read_metrics(untraced)
        timed = read_metrics(traced)
        lookups = (after.hits + after.misses) - (before.hits + before.misses)
        metrics = layer_metrics(client)
        metrics.update(build_metrics(builds))
        metrics.update(process)
        metrics.update(
            {
                "engine.cache.hit_rate": (after.hits - before.hits) / lookups if lookups else 0.0,
                "indices.sweepline.index_over_scan": untimed["search_p50_ms"] / untimed["scan_p50_ms"],
                "bench.tracing_overhead": timed["search_p50_ms"] / untimed["search_p50_ms"],
                "persistence.archive_bytes_per_reading": archives / (self.series.size * 8),
                "live.index.append_ms": median(
                    [o.seconds * 1e3 for o, s in zip(appends, sealed) if not s]
                ),
                "live.index.seal_append_ms": median(
                    [o.seconds * 1e3 for o, s in zip(appends, sealed) if s]
                ),
                "live.index.seals": float(seals),
                "live.index.compactions": float(compactions),
                "live.index.compact_s": compact_s,
                "ingest_readings_per_s": (self.series.size - self.initial) / sum(plain_appends),
                "append_p50_ms": untimed["append_p50_ms"],
                "append_p95_ms": untimed["append_p95_ms"],
                "disk_bytes_per_reading": disk,
            }
        )
        metrics.update({name: untimed[name] for name in UNGATED_METRICS})
        failed = plain.failed + client.failed
        return metrics, len(untraced) + len(traced), failed, client.recorder


class LiveTracedClient(TracedClient):
    """Waits for background compaction before each read, so the
    segment layout a replay sees (and its counters) repeat exactly."""

    def run(self, kind: str, queries: list) -> Outcome:
        self.plane_of().wait_for_compaction()
        return super().run(kind, queries)
