"""Seeded, correctness-checked geoflow benchmark (see run.py)."""
