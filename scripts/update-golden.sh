#!/usr/bin/env bash
# Regenerate the pinned metrics-snapshot golden files that CI diffs exactly.
#
# Run this ONLY when a change intentionally alters a pinned scenario's
# metrics (new counters, renamed spans, changed accounting) — then commit the
# updated tests/golden/metrics_*.json alongside the change and say in the
# change description why they moved. The pinned scenarios are deterministic,
# so the files are byte-identical on every host and at every
# --migration-workers setting; tests/obs.rs and tests/real_golden.rs re-run
# them in-process and must agree with these artifacts.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release --offline --locked

./target/release/tierscape-cli run \
  --windows 6 --accesses 50000 \
  --migration-workers 2 --fault-rate 0.1 \
  --metrics-out tests/golden/metrics_pinned.json

./target/release/tierscape-cli run --real --setup spectrum \
  --windows 6 --accesses 50000 \
  --migration-workers 2 --fault-rate 0.1 \
  --metrics-out tests/golden/metrics_real_pinned.json

# The pool-limit scenario has no CLI form (there is no pool-limit flag): its
# test writes the actual snapshot to target/tmp/ before comparing.
cargo test --release --offline --locked --test real_golden \
  real_pool_limit_snapshot_matches_checked_in_golden || true
cp target/tmp/metrics_real_pool_limit.json tests/golden/

echo "updated tests/golden/metrics_pinned.json, metrics_real_pinned.json and metrics_real_pool_limit.json"
