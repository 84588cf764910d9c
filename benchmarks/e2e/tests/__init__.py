"""Tests of the benchmark's own machinery (fast, no timing assertions)."""
