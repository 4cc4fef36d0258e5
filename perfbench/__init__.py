"""Timing harness for rlab: three workloads, output checks and an opt-in trace.

Run ``python3 perfbench/run.py --help`` from the repository root.
"""
