"""The repository's one performance benchmark (see README.md here).

``python3 benchmarks/perf/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` runs one seeded workload in one closed-loop client process,
checks every answer and prints one JSON result line; ``BENCHMARK.json`` at the
repository root names the workloads and metrics.
"""
