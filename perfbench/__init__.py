"""Benchmark harness for chencensor; see README.md in this directory."""
