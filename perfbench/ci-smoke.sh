#!/bin/sh
# Two-second run of every workload, tracing off and on. Fails unless
# BENCHMARK.json and the program name the same workloads and metrics, every
# metric is printed exactly once with its unit, and every pass is verified
# against the native simulators. Run from anywhere; not yet wired into CI.
set -eu
cd "$(dirname "$0")/.."
exec cargo run --release --quiet --offline --manifest-path perfbench/Cargo.toml -- --smoke
