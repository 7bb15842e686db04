"""End-to-end and per-layer benchmark for bitprobe; ``perfbench/run.py`` is the entry point."""
