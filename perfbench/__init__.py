"""The benchmark of record: ``python3 perfbench/run.py --workload NAME``."""
