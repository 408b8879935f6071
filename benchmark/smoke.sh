#!/usr/bin/env bash
# Smoke run of the benchmark: every workload once for one second, the
# traced pass, one ladder round. Checks that everything runs and that every
# output is correct; proves nothing about speed. Under 25 s after the build.
# Run from anywhere; ready for a CI job to call.
set -euo pipefail
cd "$(dirname "$0")/.."
exec cargo run --release --quiet --offline --manifest-path benchmark/Cargo.toml -- all --smoke "$@"
