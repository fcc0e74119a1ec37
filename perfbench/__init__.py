"""Benchmark of the twin-search engine: three workloads, timed end to end
and traced layer by layer (run with ``python3 perfbench/run.py``)."""
