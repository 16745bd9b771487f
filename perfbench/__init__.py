"""Benchmark for the repro package: workloads, layer tracing, open-loop load."""
