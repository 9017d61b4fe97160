#!/usr/bin/env bash
# Verifies the batched placement-evaluation kernel end to end:
#   1. clippy is clean (-D warnings) on every crate the batch refactor
#      touches (core, bench, the root crate with the probe subcommand);
#   2. the graph unit tests and the exact-equality batch property suite
#      pass (batch columns bit-equal serial folds, batched best-of vs a
#      sequential reference, the wide f64 interleave fallback);
#   3. the CLI taxonomy tests for `cca probe --candidates` pass
#      (validation, exit codes, thread-invariant reports);
#   4. the batch bench runs in quick mode (which itself asserts the
#      >= 2x batched-vs-independent contract at k = 16 on the 10k Zipf
#      instance and bit-identical columns) and writes a JSON baseline;
#   5. the committed BENCH_batch.json exists and clears the contract.
#
# Run from anywhere inside the repo:
#   scripts/check_batch.sh
set -euo pipefail

cd "$(dirname "$0")/.."

export CARGO_NET_OFFLINE=true

echo "== batch check: clippy -D warnings on touched crates =="
cargo clippy -q -p cca-core -p cca-bench -p cca \
  --all-targets -- -D warnings

echo
echo "== batch check: graph unit tests =="
cargo test -q -p cca-core --lib graph

echo
echo "== batch check: exact-equality batch property suite =="
cargo test -q -p cca-core --test batch_properties

echo
echo "== batch check: probe CLI taxonomy =="
cargo test -q -p cca --test cli probe

echo
echo "== batch check: quick bench smoke (asserts the >= 2x batch contract) =="
smoke_out="$(mktemp)"
trap 'rm -f "$smoke_out"' EXIT
CCA_BENCH_QUICK=1 CCA_BENCH_OUT="$smoke_out" \
  cargo bench -q -p cca-bench --bench placement_batch
test -s "$smoke_out" || { echo "bench smoke wrote no JSON"; exit 1; }

echo
echo "== batch check: committed BENCH_batch.json =="
test -f BENCH_batch.json || { echo "BENCH_batch.json is missing"; exit 1; }
grep -q '"bench": "placement_batch"' BENCH_batch.json
grep -q '"name": "zipf-10k"' BENCH_batch.json
grep -q '"batch_speedup_floor": 2' BENCH_batch.json
# The committed baseline must be a full (non-quick) run.
grep -q '"quick": false' BENCH_batch.json || {
  echo "BENCH_batch.json was written by a quick run; re-run: cargo bench -p cca-bench --bench placement_batch"
  exit 1
}

echo
echo "batch check: OK"
