"""Benchmark of the repro program: see README.md."""
