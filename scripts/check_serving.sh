#!/usr/bin/env bash
# Verifies the serving front end to end (DESIGN.md §13):
#   1. clippy is clean (-D warnings) on every crate the serving work
#      touches (core, search, par, bench, the root crate);
#   2. the histogram/report unit tests, the persisted-report round-trip
#      tests, the engine probe/home-node pins, and the serve module's
#      own tests pass;
#   3. the serving property battery passes (batched admission
#      byte-identical to serial per-query execution across
#      inflight {1, 7, 64} x threads {1, 2, 8} x shards {1, 2, 7},
#      overload accounting, golden closed- and open-loop report pins);
#   4. the CLI `serve` taxonomy holds (0 clean / 2 shed / 3 infeasible,
#      report shape, byte-identical output across thread/shard/inflight
#      counts, degenerate flags rejected at parse time);
#   5. a release-mode load run under a tight budget sheds the heavy
#      tail deterministically: exit 2, never a hang or panic, with a
#      byte-identity spot check against a differently-threaded rerun;
#   6. the quick-mode load bench runs (hard-asserting the counter
#      partition and flat-vs-sharded determinism) and writes JSON;
#   7. the committed BENCH_serving.json is a full (non-quick) 10^4-query
#      run with the invariant intact, determinism recorded, a mixed
#      taxonomy, and throughput above a conservative floor.
#
# Run from anywhere inside the repo:
#   scripts/check_serving.sh
set -euo pipefail

cd "$(dirname "$0")/.."

export CARGO_NET_OFFLINE=true

echo "== serving check: clippy -D warnings on touched crates =="
cargo clippy -q -p cca-core -p cca-search -p cca-par -p cca-bench -p cca \
  --all-targets -- -D warnings

echo
echo "== serving check: histogram + report unit tests =="
cargo test -q -p cca-core --lib serving

echo
echo "== serving check: report persistence round-trip =="
cargo test -q -p cca-core --lib persist

echo
echo "== serving check: engine probe/home-node pins =="
cargo test -q -p cca-search --lib probe_each
cargo test -q -p cca-search --lib home_node

echo
echo "== serving check: serve module tests =="
cargo test -q -p cca --lib serve

echo
echo "== serving check: serving property battery =="
cargo test -q -p cca --test serving_properties

echo
echo "== serving check: CLI serve taxonomy =="
cargo test -q -p cca --test cli serve_
cargo test -q -p cca --test cli count_options_reject_zero_uniformly

echo
echo "== serving check: release load run (exit 2, byte-identical, no hang) =="
cargo build -q --release --bin cca
load_a="$(mktemp)"
load_b="$(mktemp)"
trap 'rm -f "$load_a" "$load_b"' EXIT
set +e
./target/release/cca serve --preset small --seed 42 --queries 10000 \
  --deadline-ms 1 --threads 2 > "$load_a"
code_a=$?
./target/release/cca serve --preset small --seed 42 --queries 10000 \
  --deadline-ms 1 --threads 8 --shards 7 --inflight 1 > "$load_b"
code_b=$?
set -e
for code in "$code_a" "$code_b"; do
  if [ "$code" -ne 0 ] && [ "$code" -ne 2 ]; then
    echo "ERROR: load run exited $code (want 0 or 2)" >&2
    exit 1
  fi
done
if [ "$code_a" -ne "$code_b" ]; then
  echo "ERROR: exit code changed with thread/shard/inflight ($code_a vs $code_b)" >&2
  exit 1
fi
if ! cmp -s "$load_a" "$load_b"; then
  echo "ERROR: serving report differs across thread/shard/inflight counts" >&2
  exit 1
fi
grep -q '^shed_deadline	0$' "$load_a" || {
  echo "ERROR: the wall-clock backstop tripped on a healthy run" >&2; exit 1; }
awk -F'\t' '
  $1 == "queries" { queries = $2 }
  $1 == "served" || $1 == "degraded" || /^shed_/ { answered += $2 }
  END { exit (queries > 0 && answered == queries) ? 0 : 1 }
' "$load_a" || {
  echo "ERROR: load run counters do not partition the stream" >&2; exit 1; }
echo "OK: load run exited $code_a, byte-identical across configs, counters partition."

echo
echo "== serving check: quick bench smoke (hard-asserts invariants) =="
smoke_out="$(mktemp)"
trap 'rm -f "$load_a" "$load_b" "$smoke_out"' EXIT
CCA_BENCH_QUICK=1 CCA_BENCH_OUT="$smoke_out" \
  cargo bench -q -p cca-bench --bench serving_load
test -s "$smoke_out" || { echo "bench smoke wrote no JSON"; exit 1; }

echo
echo "== serving check: committed BENCH_serving.json =="
test -f BENCH_serving.json || { echo "BENCH_serving.json is missing"; exit 1; }
grep -q '"bench": "serving_load"' BENCH_serving.json
grep -q '"queries": 10000' BENCH_serving.json
# The committed baseline must be a full (non-quick) run.
grep -q '"quick": false' BENCH_serving.json || {
  echo "BENCH_serving.json was written by a quick run; re-run: cargo bench -p cca-bench --bench serving_load"
  exit 1
}
grep -q '"invariant_ok": true' BENCH_serving.json || {
  echo "ERROR: committed baseline violates the admission-counter partition" >&2
  exit 1
}
grep -q '"reports_identical": true' BENCH_serving.json || {
  echo "ERROR: committed baseline records a determinism break" >&2
  exit 1
}
grep -q '"shed_deadline": 0' BENCH_serving.json || {
  echo "ERROR: committed baseline records a tripped wall-clock backstop" >&2
  exit 1
}
echo "OK: full 10^4-query baseline present, invariants all-true."

echo
echo "== serving check: throughput floor on the committed baseline =="
# Conservative floor (~6% of the recording host's 82k queries/s) so the
# gate trips on a real regression — an accidentally quadratic admission
# loop or a per-query re-probe — not on host-to-host noise.
awk '
  /"queries_per_s":/ {
    if (match($0, /"queries_per_s": [0-9.]+/)) {
      v = substr($0, RSTART + 17, RLENGTH - 17) + 0
      if (v < 5000.0) { bad = 1 }
    }
  }
  END { exit bad ? 1 : 0 }
' BENCH_serving.json || {
  echo "ERROR: committed BENCH_serving.json is below the throughput" >&2
  echo "       floor (serving load >= 5000 queries/s)" >&2
  exit 1
}
echo "OK: committed throughput clears the floor."

echo
echo "serving check: OK"
