#!/usr/bin/env bash
# Verifies the live re-optimizing runtime end to end (DESIGN.md §14):
#   1. clippy is clean (-D warnings) on every crate the live work
#      touches (core, search, par, bench, the root crate);
#   2. the runtime module tests pass (budget pacing, regime-shift
#      replay, interference charging, threads/shards/inflight
#      byte-identity) along with the serve module's overhead-charging
#      tests;
#   3. the report persistence round-trip holds for every report kind
#      (unit tests plus the shrinking property battery);
#   4. the live property battery passes (per-epoch migrated bytes never
#      exceed the budget, the served/degraded/shed counters exactly
#      partition the offered stream, text round trip);
#   5. the CLI `live` taxonomy holds (0 clean / 2 shed / 3 infeasible,
#      byte-identical output across thread/shard/inflight counts,
#      degenerate flags rejected at parse time);
#   6. a release-mode replay of the pinned regime-shift scenario
#      migrates under budget and strictly improves shipped
#      bytes/query, byte-identical across differently-threaded reruns;
#   7. the quick-mode replay bench runs (hard-asserting improvement,
#      pacing, and determinism) and writes JSON;
#   8. the committed BENCH_live.json is a full (non-quick) run with
#      every invariant intact and throughput above a conservative
#      floor.
#
# Run from anywhere inside the repo:
#   scripts/check_live.sh
set -euo pipefail

cd "$(dirname "$0")/.."

export CARGO_NET_OFFLINE=true

echo "== live check: clippy -D warnings on touched crates =="
cargo clippy -q -p cca-core -p cca-search -p cca-par -p cca-bench -p cca \
  --all-targets -- -D warnings

echo
echo "== live check: runtime module tests =="
cargo test -q -p cca --lib runtime

echo
echo "== live check: executor overhead charging =="
cargo test -q -p cca --lib serve

echo
echo "== live check: report persistence round-trip (all kinds) =="
cargo test -q -p cca-core --lib persist
cargo test -q -p cca-core --test persist_properties

echo
echo "== live check: live property battery =="
cargo test -q -p cca --test live_properties

echo
echo "== live check: CLI live taxonomy =="
cargo test -q -p cca --test cli live_

echo
echo "== live check: release replay (migrates, under budget, improves) =="
cargo build -q --release --bin cca
replay_a="$(mktemp)"
replay_b="$(mktemp)"
replay_c="$(mktemp)"
trap 'rm -f "$replay_a" "$replay_b" "$replay_c"' EXIT
scenario=(--preset small --nodes 6 --seed 2 --epochs 100
  --queries-per-epoch 256 --drift-sigma 0.25 --drift-epochs 0
  --warm-drift 24 --migration-budget 16384)
./target/release/cca live "${scenario[@]}" --threads 1 --inflight 1 > "$replay_a"
./target/release/cca live "${scenario[@]}" --threads 8 --shards 7 --inflight 64 > "$replay_b"
./target/release/cca live "${scenario[@]}" --threads 2 --shards 2 --inflight 1 > "$replay_c"
for other in "$replay_b" "$replay_c"; do
  if ! cmp -s "$replay_a" "$other"; then
    echo "ERROR: live report differs across thread/shard/inflight counts" >&2
    exit 1
  fi
done
awk -F'\t' '
  $1 == "queries" { queries = $2 }
  $1 == "served" || $1 == "degraded" || /^shed_/ { answered += $2 }
  $1 == "migrations" { migrations = $2 }
  $1 == "migrated_bytes" { migrated = $2 }
  $1 == "max_epoch_migrated_bytes" { max_epoch = $2 }
  $1 == "migration_budget" { budget = $2 }
  $1 == "pre_queries" { preq = $2 }
  $1 == "pre_executed_bytes" { preb = $2 }
  $1 == "post_queries" { postq = $2 }
  $1 == "post_executed_bytes" { postb = $2 }
  END {
    if (queries == 0 || answered != queries) {
      print "ERROR: counters do not partition the offered stream" > "/dev/stderr"; exit 1
    }
    if (migrations < 1 || migrated == 0) {
      print "ERROR: the regime shift never triggered a migration" > "/dev/stderr"; exit 1
    }
    if (max_epoch > budget) {
      printf "ERROR: an epoch shipped %d bytes over the %d budget\n", max_epoch, budget > "/dev/stderr"
      exit 1
    }
    if (preq == 0 || postq == 0) {
      print "ERROR: a replay window executed no queries" > "/dev/stderr"; exit 1
    }
    if (postb / postq >= preb / preq) {
      printf "ERROR: bytes/query did not improve (%.1f pre -> %.1f post)\n", \
        preb / preq, postb / postq > "/dev/stderr"
      exit 1
    }
    printf "OK: replay improved %.1f -> %.1f bytes/query, %d bytes paced under the %d budget.\n", \
      preb / preq, postb / postq, migrated, budget
  }
' "$replay_a"

echo
echo "== live check: quick bench smoke (hard-asserts invariants) =="
smoke_out="$(mktemp)"
trap 'rm -f "$replay_a" "$replay_b" "$replay_c" "$smoke_out"' EXIT
CCA_BENCH_QUICK=1 CCA_BENCH_OUT="$smoke_out" \
  cargo bench -q -p cca-bench --bench live_replay
test -s "$smoke_out" || { echo "bench smoke wrote no JSON"; exit 1; }

echo
echo "== live check: committed BENCH_live.json =="
test -f BENCH_live.json || { echo "BENCH_live.json is missing"; exit 1; }
grep -q '"bench": "live_replay"' BENCH_live.json
grep -q '"epochs": 100' BENCH_live.json
# The committed baseline must be a full (non-quick) run.
grep -q '"quick": false' BENCH_live.json || {
  echo "BENCH_live.json was written by a quick run; re-run: cargo bench -p cca-bench --bench live_replay"
  exit 1
}
for invariant in counters_consistent within_budget improved; do
  grep -q "\"$invariant\": true" BENCH_live.json || {
    echo "ERROR: committed baseline violates $invariant" >&2
    exit 1
  }
done
grep -q '"reports_identical": true' BENCH_live.json || {
  echo "ERROR: committed baseline records a determinism break" >&2
  exit 1
}
echo "OK: full replay baseline present, invariants all-true."

echo
echo "== live check: throughput floor on the committed baseline =="
# Conservative floor (~5% of the recording host's 94k queries/s) so the
# gate trips on a real regression — re-solving every epoch, a
# quadratic migration slicer — not on host-to-host noise.
awk '
  /"queries_per_s":/ {
    if (match($0, /"queries_per_s": [0-9.]+/)) {
      v = substr($0, RSTART + 17, RLENGTH - 17) + 0
      if (v < 5000.0) { bad = 1 }
    }
  }
  END { exit bad ? 1 : 0 }
' BENCH_live.json || {
  echo "ERROR: committed BENCH_live.json is below the throughput" >&2
  echo "       floor (live replay >= 5000 queries/s)" >&2
  exit 1
}
echo "OK: committed throughput clears the floor."

echo
echo "live check: OK"
