"""Benchmark of the distillab CLI: end-to-end runs and an outside-in traced run.

Run it from the repository root with ``python3 perfbench/run.py --workload
<name> --seed <n> --seconds <s> --trace <0|1>``; see ``perfbench/README.md``.
"""
