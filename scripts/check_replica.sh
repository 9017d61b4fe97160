#!/usr/bin/env bash
# Verifies the replica-aware placement layer end to end (DESIGN.md §15):
#   1. clippy is clean (-D warnings) on every crate the replication work
#      touches (core, search, bench, the root crate);
#   2. the replica/domain-tree unit tests pass (spread rule, repair,
#      domain-loss chaos, v2 persistence, replica kernels);
#   3. the replica property battery passes (r=1 bit-identity across
#      threads {1, 2, 8} x shards {1, 2, 7}, spread invariant through
#      spread/migrate/repair, deterministic domain-kill grid, reads
#      survive a domain kill end to end);
#   4. the CLI replica taxonomy holds (--replicas 0 and replicas >
#      domains rejected at parse time, r=1 --domains flat byte-identical
#      to the default, v2 placement files, replicated serve);
#   5. a release-mode r=1 identity matrix run: `place --replicas 1
#      --domains flat` is byte-identical to the flag-free run;
#   6. a release-mode replicated run survives a whole-domain kill with
#      the spread invariant intact (spread valid: true on stdout);
#   7. a release-mode r=2 identity run: `place --replicas 2 --domains 4`
#      prints the same report (wall-clock fields masked) under
#      --threads 1, --threads 2 --shards 3 and --threads 8 --shards 7,
#      so the sharded replica-delta path matches the flat one;
#   8. the quick-mode read bench runs (hard-asserting spread validity,
#      counter partition, monotone transfer bytes, and r=1 equivalence)
#      and writes JSON;
#   9. the committed BENCH_replica.json is a full (non-quick) 10^4-query
#      run with every invariant true and throughput above a conservative
#      floor at every replication factor.
#
# Run from anywhere inside the repo:
#   scripts/check_replica.sh
set -euo pipefail

cd "$(dirname "$0")/.."

export CARGO_NET_OFFLINE=true

echo "== replica check: clippy -D warnings on touched crates =="
cargo clippy -q -p cca-core -p cca-search -p cca-bench -p cca \
  --all-targets -- -D warnings

echo
echo "== replica check: replica + domain-tree unit tests =="
cargo test -q -p cca-core --lib replica
cargo test -q -p cca-core --lib domain

echo
echo "== replica check: replica property battery =="
cargo test -q -p cca --test replica_properties

echo
echo "== replica check: CLI replica taxonomy =="
cargo test -q -p cca --test cli replica
cargo test -q -p cca --test cli domains_flag_rejects_bad_specs

echo
echo "== replica check: release r=1 identity matrix =="
cargo build -q --release --bin cca
plain="$(mktemp)"
flagged="$(mktemp)"
trap 'rm -f "$plain" "$flagged"' EXIT
./target/release/cca place --preset tiny --nodes 4 --scope 40 \
  --strategy greedy --seed 7 > "$plain"
./target/release/cca place --preset tiny --nodes 4 --scope 40 \
  --strategy greedy --seed 7 --replicas 1 --domains flat > "$flagged"
if ! cmp -s "$plain" "$flagged"; then
  echo "ERROR: --replicas 1 --domains flat changed the place output" >&2
  diff "$plain" "$flagged" >&2 || true
  exit 1
fi
echo "OK: r=1 flat tree is byte-identical to the default."

echo
echo "== replica check: release replicated place keeps the spread =="
./target/release/cca place --preset tiny --nodes 6 --scope 40 \
  --strategy greedy --seed 7 --replicas 2 --domains 3 > "$flagged"
grep -q 'replicated x2' "$flagged" || {
  echo "ERROR: replicated place did not report the replication factor" >&2
  exit 1
}
grep -q 'spread valid: true' "$flagged" || {
  echo "ERROR: replicated place violated the spread invariant" >&2
  exit 1
}
echo "OK: replicated place reports a valid spread."

echo
echo "== replica check: release r=2 identity across threads x shards =="
r2_ref="$(mktemp)"
r2_out="$(mktemp)"
trap 'rm -f "$plain" "$flagged" "$r2_ref" "$r2_out"' EXIT
r2_place() {
  ./target/release/cca place --preset small --nodes 8 --scope 100 \
    --strategy greedy --seed 7 --replicas 2 --domains 4 "$@" |
    sed -E 's/[0-9]+ ms/X ms/g'
}
r2_place --threads 1 > "$r2_ref"
for flags in "--threads 2 --shards 3" "--threads 8 --shards 7"; do
  # shellcheck disable=SC2086 # word-split the flag list on purpose
  r2_place $flags > "$r2_out"
  if ! cmp -s "$r2_ref" "$r2_out"; then
    echo "ERROR: r=2 place under $flags differs from --threads 1" >&2
    diff "$r2_ref" "$r2_out" >&2 || true
    exit 1
  fi
done
echo "OK: r=2 place is byte-identical across threads x shards."

echo
echo "== replica check: quick bench smoke (hard-asserts invariants) =="
smoke_out="$(mktemp)"
trap 'rm -f "$plain" "$flagged" "$r2_ref" "$r2_out" "$smoke_out"' EXIT
CCA_BENCH_QUICK=1 CCA_BENCH_OUT="$smoke_out" \
  cargo bench -q -p cca-bench --bench replica_read
test -s "$smoke_out" || { echo "bench smoke wrote no JSON"; exit 1; }

echo
echo "== replica check: committed BENCH_replica.json =="
test -f BENCH_replica.json || { echo "BENCH_replica.json is missing"; exit 1; }
grep -q '"bench": "replica_read"' BENCH_replica.json
grep -q '"queries": 10000' BENCH_replica.json
# The committed baseline must be a full (non-quick) run.
grep -q '"quick": false' BENCH_replica.json || {
  echo "BENCH_replica.json was written by a quick run; re-run: cargo bench -p cca-bench --bench replica_read"
  exit 1
}
if grep -q '"spread_valid": false' BENCH_replica.json; then
  echo "ERROR: committed baseline records a spread-invariant break" >&2
  exit 1
fi
if grep -q '"counters_ok": false' BENCH_replica.json; then
  echo "ERROR: committed baseline violates the admission-counter partition" >&2
  exit 1
fi
grep -q '"r1_report_identical_to_single_copy": true' BENCH_replica.json || {
  echo "ERROR: committed baseline records an r=1 equivalence break" >&2
  exit 1
}
echo "OK: full 10^4-query baseline present, invariants all-true."

echo
echo "== replica check: throughput floor on the committed baseline =="
# Conservative floor (~6% of the recording host's ~90k queries/s) so the
# gate trips on a real regression — a per-query replica rescan or an
# accidental copy of the extras table — not on host-to-host noise.
awk '
  /"queries_per_s":/ {
    if (match($0, /"queries_per_s": [0-9.]+/)) {
      v = substr($0, RSTART + 17, RLENGTH - 17) + 0
      if (v < 5000.0) { bad = 1 }
    }
  }
  END { exit bad ? 1 : 0 }
' BENCH_replica.json || {
  echo "ERROR: committed BENCH_replica.json is below the throughput" >&2
  echo "       floor (replicated read >= 5000 queries/s at every r)" >&2
  exit 1
}
echo "OK: committed throughput clears the floor at every replication factor."

echo
echo "replica check: OK"
