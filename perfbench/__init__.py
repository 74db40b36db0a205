"""Benchmark of csskit; see README.md in this directory."""
