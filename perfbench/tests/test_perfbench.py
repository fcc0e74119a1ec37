"""Smoke-size tests of the benchmark itself.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
"""

from __future__ import annotations

import json
import os
import sys

import numpy as np
import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from perfbench import run, workloads  # noqa: E402
from perfbench.gate import GateError, check_positions, check_series, series_digest  # noqa: E402
from perfbench.spans import Span, SpanRecorder, covered, self_times  # noqa: E402
from perfbench.stats import combine  # noqa: E402

#: Readings of the smoke-size static plane.
SMOKE_POINTS = 1500


def spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def selective():
    bench = workloads.StaticBench("selective", seed=3, points=SMOKE_POINTS)
    bench.setup()
    yield bench
    bench.close()


def test_declared_workloads_match_the_runner():
    names = [entry["name"] for entry in spec()["workloads"]]
    assert names == list(run.WORKLOADS) == list(workloads.WORKLOADS)


def test_static_timed_parts_emit_every_end_to_end_metric(selective):
    parts = [selective.timed_part(0.3, part, 2) for part in range(2)]
    metrics, attempted, failed = combine(parts)
    assert attempted == sum(part["ops"] for part in parts) > 0 and failed == 0
    for name, _ in run.declared_metrics(0):
        assert name in metrics
        assert metrics[name] > 0, name


def test_static_traced_pass_emits_every_per_layer_metric(selective, tmp_path):
    metrics, attempted, failed, spans = selective.traced(str(tmp_path), ops_count=40)
    assert attempted == 80 and failed == 0
    assert {name for name, _ in run.declared_metrics(1)} <= set(metrics)
    assert metrics["core.frozen.nodes_visited"] > 0
    assert spans.spans


def test_traced_counters_repeat_for_a_seed(selective, tmp_path):
    first, *_ = selective.traced(str(tmp_path), ops_count=30)
    second, *_ = selective.traced(str(tmp_path), ops_count=30)
    for name in ("core.frozen.nodes_visited", "core.frozen.candidates"):
        assert first[name] == second[name]


def test_replay_equals_engine_query(selective):
    plane = selective.plane
    recorder = SpanRecorder()
    counters = workloads.ReplayCounters()
    for position in (0, 17, plane.source.count - 1):
        for length in (workloads.LENGTH, workloads.VARLENGTH_M):
            query = np.array(plane.source.window(position)[:length])
            got = selective.engine.query("index", query, 0.5, use_cache=False)
            replayed = workloads.replay_search(recorder, plane, query, 0.5, counters)
            assert np.array_equal(replayed.positions, got.positions)
            assert position in replayed.positions.tolist()
    assert counters.queries == 6


def test_live_replay_equals_engine_query(tmp_path):
    bench = workloads.LiveBench(seed=5, work=str(tmp_path), points=3000, initial=1200)
    try:
        bench.setup()
        client = workloads.TracedClient(bench.engine, "live", bench.epsilon, lambda: bench.live)
        outcomes, sealed = bench.ingest(client)
        assert not any(sealed)
        assert all(outcome.error is None for outcome in outcomes)
        assert client.counters.queries > 0
        bench.finish()
    finally:
        bench.close()


def test_self_time_on_a_hand_built_tree():
    spans = [
        Span(0, "request", 0.0, 10.0, None, 1),
        Span(1, "prepare", 1.0, 2.0, 0, 1),
        Span(2, "fanout", 2.0, 8.0, 0, 1),
        # Two parts that overlap in time: their union, 2..7, is covered once.
        Span(3, "part", 2.0, 6.0, 2, 1),
        Span(4, "part", 3.0, 7.0, 2, 1),
        Span(5, "traverse", 2.5, 4.0, 3, 1),
    ]
    own = self_times(spans)
    assert own[0] == pytest.approx(10.0 - 1.0 - 6.0)
    assert own[2] == pytest.approx(6.0 - 5.0)
    assert own[3] == pytest.approx(4.0 - 1.5)
    assert own[4] == pytest.approx(4.0)
    assert own[5] == pytest.approx(1.5)
    assert covered([(0.0, 1.0), (0.5, 2.0), (3.0, 4.0)]) == pytest.approx(3.0)


def test_gate_trips_on_a_corrupted_expected_result():
    want = np.array([3, 9, 40], dtype=np.int64)
    check_positions("search", want.copy(), want)
    corrupted = want.copy()
    corrupted[1] += 1
    with pytest.raises(GateError):
        check_positions("search", corrupted, want)
    with pytest.raises(GateError):
        check_positions("search", want.astype(np.int32), want)


def test_gate_trips_on_a_corrupted_oracle_in_a_run(selective):
    class Corrupted:
        def __init__(self, scan):
            self.source = scan.source
            self._scan = scan

        def search(self, query, epsilon):
            result = self._scan.search(query, epsilon)
            result.positions = result.positions + 1
            return result

    ops, _ = selective.ops()
    client = workloads.Client(selective.engine, "index", 0.5)
    outcomes = selective.execute(client, [op for op in ops if op.kind == "search"][:3])
    with pytest.raises(GateError):
        workloads.check_static(outcomes, Corrupted(selective.engine.registry.get("scan")), 0.5)


def test_input_digest_is_checked():
    values = workloads.load_series()
    with open(os.path.join(ROOT, "perfbench", "inputs.json"), encoding="utf-8") as handle:
        expected = json.load(handle)
    assert series_digest(values) == expected["sha256"]
    tampered = values.copy()
    tampered[100] += 1e-9
    with pytest.raises(GateError):
        check_series(tampered, expected)


def test_runner_refuses_a_checkout_without_sources(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "ROOT", str(tmp_path))
    code = run.main(["--workload", "broad", "--seed", "1", "--seconds", "1"])
    assert code == 2
    assert capsys.readouterr().out == ""
