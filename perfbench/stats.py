"""Summary statistics over pooled latency samples.

Free of any ``repro`` import, so the parent of a multi-interpreter run
can pool its children's samples without loading the program.
"""

from __future__ import annotations

import statistics

import numpy as np

#: Operation kinds the clients time.
KINDS = ("search", "varlength", "batch", "knn", "scan", "append")


def quantile(values: list[float], q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q * 100.0)) if values else 0.0


def median(values: list[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def summarize(parts: list[dict]) -> dict[str, float]:
    """Latency and throughput figures, on the wall clock and in CPU
    time, from the pooled samples of one or more passes (each
    ``{"ms": {kind: [...]}, "cpu_ms": {kind: [...]}, "ops": n,
    "busy_s": s, "cpu_s": s}``)."""

    def pool(key: str) -> dict[str, list[float]]:
        pooled: dict[str, list[float]] = {kind: [] for kind in KINDS}
        for part in parts:
            for kind, values in part[key].items():
                pooled[kind] += values
        return pooled

    wall, cpu = pool("ms"), pool("cpu_ms")
    ops = sum(part["ops"] for part in parts)
    busy = sum(part["busy_s"] for part in parts)
    cpu_s = sum(part["cpu_s"] for part in parts)
    return {
        "search_p50_ms": median(wall["search"]),
        "search_p95_ms": quantile(wall["search"], 0.95),
        "ops_per_s": ops / busy if busy else 0.0,
        "varlength_p50_ms": median(wall["varlength"]),
        "knn_p50_ms": median(wall["knn"]),
        "batch_ms_per_query": median(wall["batch"]),
        "scan_p50_ms": median(wall["scan"]),
        "append_p50_ms": median(wall["append"]),
        "append_p95_ms": quantile(wall["append"], 0.95),
        "search_cpu_p50_ms": median(cpu["search"]),
        "search_cpu_p95_ms": quantile(cpu["search"], 0.95),
        "ops_per_cpu_s": ops / cpu_s if cpu_s else 0.0,
        "varlength_cpu_p50_ms": median(cpu["varlength"]),
        "knn_cpu_p50_ms": median(cpu["knn"]),
        "batch_cpu_ms_per_query": median(cpu["batch"]),
        "scan_cpu_p50_ms": median(cpu["scan"]),
    }


#: Ungated counterparts of the end-to-end figures, which a traced run
#: reports from its untraced pass.
UNGATED_METRICS = (
    "search_p50_ms", "search_p95_ms", "ops_per_s", "varlength_p50_ms",
    "knn_cpu_p50_ms", "batch_ms_per_query", "scan_p50_ms",
)


def combine(parts: list[dict]) -> tuple[dict[str, float], int, int]:
    """``(metrics, attempted, failed)`` of a timed run made of parts that
    each report ``setup_s``, ``peak_rss_mb``, ``failed`` and samples."""
    metrics = summarize(parts)
    metrics["setup_s"] = median([part["setup_s"] for part in parts])
    metrics["peak_rss_mb"] = max(part["peak_rss_mb"] for part in parts)
    return metrics, sum(part["ops"] for part in parts), sum(part["failed"] for part in parts)
