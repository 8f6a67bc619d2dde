"""Calibrated benchmark suite: four seeded paper workloads, end-to-end
metrics, and an outside-in per-layer trace (see README.md)."""
