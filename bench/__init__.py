"""Benchmark of the moltendt pipeline; run it with ``python3 bench/run.py``."""
