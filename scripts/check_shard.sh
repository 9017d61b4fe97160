#!/usr/bin/env bash
# Verifies the sharded-CSR layer end to end (DESIGN.md §11):
#   1. clippy is clean (-D warnings) on every crate the sharding work
#      touches (core, trace, bench, the root crate);
#   2. the shard unit tests and the shard-invariance property suite pass
#      (shard counts {1, 2, 7, n} x threads {1, 2, 8} bit-identical to
#      the flat CSR on dyadic weights and equal to the shard-order
#      reference on non-dyadic ones; problem dispatch and restriction
#      preserve bits);
#   3. the interleave-boundary pins hold (f32/f64 switch exact at
#      2^24 +/- 1 nodes) and the generator-scale sampler regressions
#      pass (Zipf / WeightedSampler exact at n = 10^6);
#   4. the CLI --shards taxonomy holds (byte-identical output across
#      shard and thread counts, 0/2/3 exit codes under sharding);
#   5. the shard bench runs in quick mode (which itself hard-asserts
#      bit identity of every sharded cost/batch vs. the flat CSR,
#      including the > 2^24-node f64 interleave regime) and writes JSON;
#   6. the committed BENCH_shard.json is a full (non-quick) 10^6-object
#      / 10^7-edge run with all bits_match true, one EdgeId range per
#      shard on (a, b)-sorted pairs and many on draw-order pairs, and
#      throughput above conservative floors on both.
#
# Run from anywhere inside the repo:
#   scripts/check_shard.sh
set -euo pipefail

cd "$(dirname "$0")/.."

export CARGO_NET_OFFLINE=true

echo "== shard check: clippy -D warnings on touched crates =="
cargo clippy -q -p cca-core -p cca-trace -p cca-bench -p cca \
  --all-targets -- -D warnings

echo
echo "== shard check: shard unit tests =="
cargo test -q -p cca-core --lib shard

echo
echo "== shard check: shard-invariance property suite =="
cargo test -q -p cca-core --test shard_properties

echo
echo "== shard check: interleave-boundary pins (2^24 +/- 1) =="
cargo test -q -p cca-core --test batch_properties interleave_width

echo
echo "== shard check: generator-scale sampler regressions =="
cargo test -q -p cca-trace million
cargo test -q -p cca-trace instance

echo
echo "== shard check: CLI --shards taxonomy =="
cargo test -q -p cca --test cli shard

echo
echo "== shard check: quick bench smoke (hard-asserts bit identity) =="
smoke_out="$(mktemp)"
trap 'rm -f "$smoke_out"' EXIT
CCA_BENCH_QUICK=1 CCA_BENCH_OUT="$smoke_out" \
  cargo bench -q -p cca-bench --bench placement_shard
test -s "$smoke_out" || { echo "bench smoke wrote no JSON"; exit 1; }

echo
echo "== shard check: committed BENCH_shard.json =="
test -f BENCH_shard.json || { echo "BENCH_shard.json is missing"; exit 1; }
grep -q '"bench": "placement_shard"' BENCH_shard.json
grep -q '"name": "zipf-1m"' BENCH_shard.json
grep -q '"objects": 1000000' BENCH_shard.json
grep -q '"edges": 10000000' BENCH_shard.json
# The committed baseline must be a full (non-quick) run.
grep -q '"quick": false' BENCH_shard.json || {
  echo "BENCH_shard.json was written by a quick run; re-run: cargo bench -p cca-bench --bench placement_shard"
  exit 1
}
# Every sharded row and the wide-interleave probe must have matched the
# flat CSR to the bit when the baseline was recorded.
if grep -q '"bits_match": false' BENCH_shard.json; then
  echo "ERROR: committed BENCH_shard.json records a bit-identity break" >&2
  exit 1
fi
grep -q '"wide_interleave": {"num_nodes": 16777217, "bits_match": true}' \
  BENCH_shard.json
grep -q '"fragmented_sharded": \[' BENCH_shard.json || {
  echo "BENCH_shard.json has no fragmented (draw-order) rows" >&2
  exit 1
}
# Builder-order pairs give each shard one EdgeId range; draw-order pairs
# must really fragment, or those rows measure nothing new.
awk '
  /"sharded": \[/ { sec = "sorted" }
  /"fragmented_sharded": \[/ { sec = "fragmented" }
  /"shards":/ {
    match($0, /"shards": [0-9]+/); s = substr($0, RSTART + 10, RLENGTH - 10) + 0
    match($0, /"ranges": [0-9]+/); r = substr($0, RSTART + 10, RLENGTH - 10) + 0
    if (sec == "sorted" && r > s) { bad = 1 }
    if (sec == "fragmented" && r <= s) { bad = 1 }
  }
  END { exit bad ? 1 : 0 }
' BENCH_shard.json || {
  echo "ERROR: BENCH_shard.json range counts: sorted rows need <= 1 range" >&2
  echo "       per shard, draw-order rows more than 1" >&2
  exit 1
}
echo "OK: full-scale baseline present, bits_match all-true, ranges as expected."

echo
echo "== shard check: throughput floors on the committed baseline =="
# Conservative floors so the gate trips on a real regression, not on
# host-to-host noise. At 10^7 edges: every shard partition build must
# clear 1 Medge/s and every sharded eval 50 Medges/s, on sorted and on
# fragmented partitions alike; the flat baseline build (a full
# sort-based CSR construction, inherently slower) must clear
# 0.2 Medges/s.
awk '
  /"shards":/ {
    if (match($0, /"build_medges_per_s": [0-9.]+/)) {
      v = substr($0, RSTART + 22, RLENGTH - 22) + 0
      if (v < 1.0) { bad = 1 }
    }
    if (match($0, /"eval_medges_per_s": [0-9.]+/)) {
      v = substr($0, RSTART + 21, RLENGTH - 21) + 0
      if (v < 50.0) { bad = 1 }
    }
  }
  /"flat":/ {
    if (match($0, /"build_medges_per_s": [0-9.]+/)) {
      v = substr($0, RSTART + 22, RLENGTH - 22) + 0
      if (v < 0.2) { bad = 1 }
    }
  }
  END { exit bad ? 1 : 0 }
' BENCH_shard.json || {
  echo "ERROR: committed BENCH_shard.json is below the throughput floors" >&2
  echo "       (sharded build >= 1 Medge/s, sharded eval >= 50 Medges/s," >&2
  echo "        flat build >= 0.2 Medges/s)" >&2
  exit 1
}
echo "OK: committed throughput clears the floors on every row."

echo
echo "shard check: OK"
