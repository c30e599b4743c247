"""Benchmark of the blockcase command line; run ``python3 perfbench/run.py --help``."""
