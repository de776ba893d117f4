#!/usr/bin/env bash
# Offline tier-1 gate: formatting, the full workspace test suite, the
# release-only workload tests, a warnings-as-errors lint pass,
# warnings-as-errors rustdoc, ts-lint, and a build of the benchmark package
# against its own lock file. Everything runs against the vendored in-repo
# dependency shims (crates/shims/), so no network access is needed or
# attempted; --locked guards against silent lockfile drift.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt (check) =="
cargo fmt --all --check

echo "== cargo test (offline) =="
cargo test --workspace --offline --locked

# Tests too slow for a debug build, such as the pin of the benchmark's rMat
# graph, are #[ignore]d there and run here in release.
echo "== release-only workload tests (--ignored) =="
cargo test --release --offline --locked -p ts-workloads -- --ignored

echo "== cargo clippy (deny warnings) =="
cargo clippy --workspace --all-targets --offline --locked -- -D warnings

echo "== cargo doc (deny warnings) =="
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline --locked

echo "== ts-lint (determinism/robustness rules) =="
cargo run --release --offline --locked -p ts-lint

# The benchmark package has its own Cargo.lock, which lists dependency
# edges the workspace no longer uses; this build fails if one goes missing.
echo "== benchmark package build (its own lock file) =="
cargo build --release --offline --locked --manifest-path crates/bench/perfbench/Cargo.toml

echo "verify: OK"
