"""The vidb end-to-end benchmark: four wire-level workloads against real
``vidb.cli`` subprocesses, end-to-end metrics with regression bounds and
an outside-in per-layer ladder.  See README.md in this directory;
``BENCHMARK.json`` at the repository root is the contract the driver
reads, ``run.py`` its entry point.
"""
