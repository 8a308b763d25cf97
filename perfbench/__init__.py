"""Benchmark of the pitmanyor CLI and experiment harness; see README.md."""
