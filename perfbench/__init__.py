"""Benchmark of the harmonicdisk toolkit; see README.md."""
