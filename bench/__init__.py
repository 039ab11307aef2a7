"""The repository's one repeatable benchmark (see bench/README.md).

Six closed-loop workloads measured from outside, through public entry
points only; ``BENCHMARK.json`` at the repository root names every
workload and metric this package prints.
"""
