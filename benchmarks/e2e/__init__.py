"""The repository's end-to-end benchmark (see ``README.md`` in this directory).

``run.py`` is the one command; ``BENCHMARK.json`` at the repository root
declares the workloads, the metrics and their regression bounds.
"""
