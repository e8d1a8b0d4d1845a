#!/usr/bin/env bash
# Smoke run of the end-to-end benchmark: all four workloads at 1/50
# scale, untraced and traced, schema and output checks only (no
# bounds). Exits non-zero when a check fails. Run from anywhere; a later
# change wires it into .github/workflows/ci.yml.
set -euo pipefail
cd "$(dirname "$0")/.."
cargo test --release --offline --quiet --manifest-path benchmark/Cargo.toml
cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- --smoke "$@"
