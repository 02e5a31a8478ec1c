"""Seeded train/eval benchmark for the dpstyler package.

The scripts ``perfbench/run.py`` and ``perfbench/generate.py`` put the
checkout's ``src/`` on ``sys.path`` before importing this package, so the
benchmark always measures the source tree it ships with.
"""
