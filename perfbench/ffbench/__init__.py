"""Benchmark harness for fracfield: workloads, oracles, tracing and statistics.

The entry point is ``perfbench/run.py``; each workload part runs in a fresh
interpreter started by ``perfbench/child.py``.
"""
