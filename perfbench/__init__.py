"""End-to-end and per-layer benchmark of the srings CLI (see README.md)."""
