#!/usr/bin/env bash
# The one check driver: every gate behind the evidence for the paper's
# claims, grouped by kind of gate.
#
#   scripts/check.sh            run every step, in the order below
#   scripts/check.sh STEP...    run only the named steps
#
#   hermetic  `cargo tree` holds only workspace-local crates; offline
#             release build of every target, then with `--features chaos`
#   clippy    rustfmt's check over the workspace; `-D warnings` over
#             every crate and target of the workspace; rustdoc with
#             warnings denied over the workspace's docs; both with
#             `--features chaos`, which only adds code (the chaos suite
#             and the simplex's fault hook), so nothing goes unlinted
#   test      the full test suite, then again with `--features chaos`
#             (adds the tier-2 chaos suite): unit tests, the Lemma 1/2 and
#             Theorem 2/3 batteries, golden and replay pins, property
#             suites, threads x shards x inflight byte identity, CLI
#             taxonomies; then cca-hash's tests again in release mode
#             (the MD5 kernel as it ships); then the benchmark package's
#             tests (perfbench/, its own workspace): every workload at
#             smoke size with all output checks on seeds 1 and 7919, so a
#             library change that breaks the benchmark fails here
#   cli       release-binary contracts: `place` exit codes and thread
#             identity, a `run` chaos soak, a `serve` load run, the `live`
#             regime-shift replay, replica identity and spread; then every
#             program in examples/ runs and must exit 0
#   bench     quick-mode smokes of every bench target: the gated benches
#             (each asserts its own contract and must write JSON), the
#             paper bench under the paper shape gate, and placement_micro,
#             which must exit 0; the 8-thread speed-up gate arms only on
#             hosts with 8 or more cores
#   baseline  the committed BENCH_*.json files: full (non-quick) runs with
#             their invariants recorded true and throughput above floors;
#             BENCH_paper.json under the paper shape gate
#
# A step stops at its first failing command. The driver still runs the
# remaining steps, prints one verdict line per step, and exits non-zero
# if any step failed. Cargo runs offline: the build must be hermetic.
set -uo pipefail

cd "$(dirname "$0")/.."
export CARGO_NET_OFFLINE=true

steps=(hermetic clippy test cli bench baseline)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

fail() {
  echo "ERROR: $*" >&2
  exit 1
}

# -- file gates ----------------------------------------------------------

# has FILE LITERAL...: FILE is non-empty and contains every literal.
has() {
  local file=$1 lit
  shift
  [ -s "$file" ] || fail "$file is missing or empty"
  for lit in "$@"; do
    grep -qF -- "$lit" "$file" || fail "$file lacks $lit"
  done
}

# lacks FILE LITERAL...: FILE is non-empty and contains none of them.
lacks() {
  local file=$1 lit
  shift
  [ -s "$file" ] || fail "$file is missing or empty"
  for lit in "$@"; do
    if grep -qF -- "$lit" "$file"; then fail "$file records $lit"; fi
  done
}

# The awk parser every numeric gate shares: num(KEY) is the number after
# `"KEY": ` on the current line, 0 when the key is absent.
num='function num(k,  i) {
  i = index($0, "\"" k "\": ")
  return i ? substr($0, i + length(k) + 4) + 0 : 0
}'

# values FILE KEY [ROW]: the KEY number of every line of FILE that holds
# the key and matches the regex ROW (default: any line), one per line, at
# full precision so a floor compares the recorded value exactly.
values() {
  awk -v k="$2" -v row="${3:-}" "$num"'
    $0 ~ row && index($0, "\"" k "\": ") { printf "%.17g\n", num(k) }' "$1"
}

# floor FILE KEY MIN [ROW]: FILE holds KEY (on ROW lines), and every such
# value is at least MIN.
floor() {
  local got low
  got=$(values "$1" "$2" "${4:-}")
  [ -n "$got" ] || fail "$1 has no $2${4:+ on $4 rows}"
  low=$(awk -v min="$3" '$1 < min' <<<"$got")
  [ -z "$low" ] || fail "$1: $2${4:+ on $4 rows} below the floor $3:" "$low"
}

# paper_shape FILE: the paper bench's ledger (quick or full run) keeps
# the shape of the paper's claims. Fig 6: LPRR < greedy < 1.0 (random)
# at every scope, both curves non-increasing in scope within 0.03 (the
# scope tolerance of tests/end_to_end.rs). Fig 7: LPRR < greedy < 1.0 at
# every node count, LPRR non-decreasing in node count within 0.03.
# Fig 5: both cumulative columns non-decreasing and ending at 1, comm
# cost covered at least as fast as index size. Fig 2: the top pair at
# least 20x the top-k-th, at most 10% of top pairs changing over 2x, and
# the sigma = 0 control (sampling noise alone) below that fraction.
# Sec 3.2: two-smallest estimation beats all-pairs under LPRR.
paper_shape() {
  awk "$num"'
    function bad(msg) { printf "ERROR: %s: %s\n", FILENAME, msg > "/dev/stderr"; err = 1 }
    /^  "[a-z0-9_]+": / { sec = substr($1, 2, length($1) - 3) }
    sec == "fig2" && /"skew_ratio": / { skew = num("skew_ratio") }
    sec == "fig2b" && /"metric": "fraction of top-/ { changed = num("value"); seen2 = 1 }
    sec == "fig2b" && /"metric": "sigma=0 control: / { control = num("value"); seenc = 1 }
    sec == "fig5" && /"rank": / {
      s = num("cum_index_size"); c = num("cum_comm_cost")
      if (n5++ && (s < s5 || c < c5)) bad(sprintf("Fig 5 rank %d: a cumulative column fell", num("rank")))
      if (c < s) bad(sprintf("Fig 5 rank %d: comm cost %.4f below index size %.4f", num("rank"), c, s))
      s5 = s; c5 = c
    }
    (sec == "fig6" && /"scope": /) || (sec == "fig7" && /"nodes": /) {
      x = sec == "fig6" ? num("scope") : num("nodes")
      g = num("greedy_norm"); l = num("lprr_norm")
      if (!(l < g && g < 1)) bad(sprintf("%s at %d: lprr %.4f, greedy %.4f, random 1", sec, x, l, g))
      if (sec == "fig6" && n6++ && (g > g6 + 0.03 || l > l6 + 0.03))
        bad(sprintf("fig6 rises at scope %d: greedy %.4f -> %.4f, lprr %.4f -> %.4f", x, g6, g, l6, l))
      if (sec == "fig7" && n7++ && l < l7 - 0.03)
        bad(sprintf("fig7 lprr falls at %d nodes: %.4f -> %.4f", x, l7, l))
      if (sec == "fig6") { g6 = g; l6 = l } else l7 = l
    }
    sec == "ablation3_correlation" && /"mode": "two-smallest"/ { two = num("lprr_norm") }
    sec == "ablation3_correlation" && /"mode": "all-pairs"/ { all = num("lprr_norm") }
    END {
      if (!n5 || !n6 || !n7) bad("a Fig 5, 6 or 7 table is missing or empty")
      if (n5 && (s5 != 1 || c5 != 1)) bad(sprintf("Fig 5 ends at %.4f / %.4f, not 1 / 1", s5, c5))
      if (skew < 20) bad(sprintf("Fig 2 skew ratio %.1f is below 20", skew))
      if (!seen2 || changed > 0.10) bad(sprintf("Fig 2 changed fraction %.4f is missing or above 0.10", changed))
      if (!seenc || !(control < changed)) bad(sprintf("Fig 2 sigma=0 control %.4f is missing or not below %.4f", control, changed))
      if (!(two > 0 && two < all)) bad(sprintf("two-smallest lprr %.4f is not below all-pairs %.4f", two, all))
      exit err
    }' "$1" || fail "$1 breaks the paper shape"
  echo "OK: $1 keeps the paper shape."
}

# -- report gates (files under $tmp) -------------------------------------

# The release binary the `cli` step builds and drives.
cca=./target/release/cca

# same FILE...: every file is byte-identical to the first.
same() {
  local ref=$1 f
  shift
  for f in "$@"; do
    cmp -s "$tmp/$ref" "$tmp/$f" || { diff "$tmp/$ref" "$tmp/$f" >&2; return 1; }
  done
}

# twins NAME FLAGS_A FLAGS_B ARGS...: runs `cca ARGS FLAGS_A` and
# `cca ARGS FLAGS_B` into $tmp/NAME.a and NAME.b. Both must exit 0 or 2,
# with the same code, and print byte-identical reports.
twins() {
  local name=$1 flags_a=$2 flags_b=$3 code_a=0 code_b=0 code
  shift 3
  # shellcheck disable=SC2086 # the flag sets split into words on purpose
  "$cca" "$@" $flags_a >"$tmp/$name.a" || code_a=$?
  # shellcheck disable=SC2086
  "$cca" "$@" $flags_b >"$tmp/$name.b" || code_b=$?
  for code in "$code_a" "$code_b"; do
    [ "$code" -eq 0 ] || [ "$code" -eq 2 ] || fail "$name exited $code (want 0 or 2)"
  done
  [ "$code_a" -eq "$code_b" ] ||
    fail "$name exit code changed with thread/shard count ($code_a vs $code_b)"
  same "$name.a" "$name.b" || fail "$name report differs across thread/shard/inflight counts"
  echo "OK: $name exited $code_a, byte-identical across configs."
}

# line FILE TEXT MESSAGE: FILE has a line that is exactly TEXT.
line() {
  grep -qxF -- "$2" "$tmp/$1" || fail "$3"
}

# partition FILE: a serving or live report's served, degraded and shed_*
# counters sum to its offered queries.
partition() {
  awk -F'\t' '
    $1 == "queries" { queries = $2 }
    $1 == "served" || $1 == "degraded" || /^shed_/ { answered += $2 }
    END { exit (queries > 0 && answered == queries) ? 0 : 1 }
  ' "$tmp/$1" || fail "$1: counters do not partition the offered stream"
}

# -- steps ---------------------------------------------------------------

step_hermetic() {
  local tree bad
  tree=$(cargo tree --workspace --edges normal,build,dev --prefix none 2>&1)
  echo "$tree"
  # Every line must be the root package `cca` or a `cca-*` crate, each
  # with a local `(/...)` path source and no registry hash.
  bad=$(printf '%s\n' "$tree" | sed 's/ (\*)$//' |
    grep -v -E '^(cca|cca-[a-z]+) v[0-9][^ ]* \(/' || true)
  [ -z "$bad" ] || fail "non-workspace dependencies found:" "$bad"
  echo "OK: only workspace-local crates in the tree."
  cargo build --release --workspace --all-targets
  cargo build --release --features chaos
}

step_clippy() {
  cargo fmt --all -- --check
  cargo clippy -q --workspace --all-targets --features chaos -- -D warnings
  RUSTDOCFLAGS="-D warnings" cargo doc -q --no-deps --workspace --features chaos
}

step_test() {
  cargo test -q
  cargo test -q --features chaos
  # The MD5 lanes vectorize only at opt-level 3: test the kernel as
  # perfbench and the release binaries run it.
  cargo test -q --release -p cca-hash
  cargo test -q --offline --manifest-path perfbench/Cargo.toml
}

step_cli() {
  local ok=0 degraded=0 t flags n=0
  cargo build -q --release --bin cca

  # place: exit codes 0 (ok) and 2 (degraded); reports identical across
  # --threads 1/2/8.
  "$cca" place --preset tiny --nodes 3 --deadline-ms 60000 >/dev/null 2>&1 || ok=$?
  "$cca" place --preset tiny --nodes 3 --deadline-ms 0 >/dev/null 2>&1 || degraded=$?
  [ "$ok" -eq 0 ] || fail "generous deadline should exit 0, got $ok"
  [ "$degraded" -eq 2 ] || fail "zero deadline should exit 2 (degraded), got $degraded"
  for t in 1 2 8; do
    "$cca" place --preset tiny --nodes 3 --scope 40 --strategy lprr --seed 11 \
      --threads "$t" >"$tmp/place.$t" 2>/dev/null
  done
  same place.1 place.2 place.8 || fail "cca place diverged across --threads 1/2/8"

  # run: a chaos soak survives two node losses, never a panic.
  twins soak "--threads 2" "--threads 8 --shards 7" \
    run --preset small --epochs 2000 --seed 42 --drop-nodes 2
  line soak.a $'node_losses\t2' "chaos soak did not record both node losses"
  line soak.a $'unrecovered_losses\t0' "chaos soak left a node loss unrepaired"
  line soak.a $'final_feasible\ttrue' "chaos soak ended infeasible"

  # serve: a load run under a 1 ms budget sheds deterministically.
  twins serve "--threads 2" "--threads 8 --shards 7 --inflight 1" \
    serve --preset small --seed 42 --queries 10000 --deadline-ms 1
  line serve.a $'shed_deadline\t0' "the wall-clock backstop tripped on a healthy run"
  partition serve.a

  # live: the pinned regime-shift replay migrates under its per-epoch
  # budget and improves shipped bytes per query.
  local live=(live --preset small --nodes 6 --seed 2 --epochs 100
    --queries-per-epoch 256 --drift-sigma 0.25 --drift-epochs 0
    --warm-drift 24 --migration-budget 16384)
  "$cca" "${live[@]}" --threads 1 --inflight 1 >"$tmp/live.1"
  "$cca" "${live[@]}" --threads 8 --shards 7 --inflight 64 >"$tmp/live.2"
  "$cca" "${live[@]}" --threads 2 --shards 2 --inflight 1 >"$tmp/live.3"
  same live.1 live.2 live.3 || fail "live report differs across thread/shard/inflight counts"
  partition live.1
  awk -F'\t' '{ v[$1] = $2 + 0 }
    END {
      if (v["migrations"] < 1 || v["migrated_bytes"] == 0)
        err = "the regime shift never triggered a migration"
      else if (v["max_epoch_migrated_bytes"] > v["migration_budget"])
        err = sprintf("an epoch shipped %d bytes over the %d budget",
          v["max_epoch_migrated_bytes"], v["migration_budget"])
      else if (v["pre_queries"] == 0 || v["post_queries"] == 0)
        err = "a replay window executed no queries"
      else {
        pre = v["pre_executed_bytes"] / v["pre_queries"]
        post = v["post_executed_bytes"] / v["post_queries"]
        if (post >= pre)
          err = sprintf("bytes/query did not improve (%.1f pre -> %.1f post)", pre, post)
      }
      if (err != "") { print "ERROR: " err > "/dev/stderr"; exit 1 }
      printf "OK: replay improved %.1f -> %.1f bytes/query, %d bytes paced under the %d budget.\n",
        pre, post, v["migrated_bytes"], v["migration_budget"]
    }' "$tmp/live.1"

  # Replicas: r=1 on a flat tree is the default's bytes; r=2 keeps the
  # spread; r=2 reports agree across threads x shards (wall-clock masked).
  local r1=(place --preset tiny --nodes 4 --scope 40 --strategy greedy --seed 7)
  "$cca" "${r1[@]}" >"$tmp/r1"
  "$cca" "${r1[@]}" --replicas 1 --domains flat >"$tmp/r1.flat"
  same r1 r1.flat || fail "--replicas 1 --domains flat changed the place output"
  "$cca" place --preset tiny --nodes 6 --scope 40 --strategy greedy --seed 7 \
    --replicas 2 --domains 3 >"$tmp/spread"
  has "$tmp/spread" 'replicated x2' 'spread valid: true'
  for flags in "--threads 1" "--threads 2 --shards 3" "--threads 8 --shards 7"; do
    n=$((n + 1))
    # shellcheck disable=SC2086 # word-split the flag list on purpose
    "$cca" place --preset small --nodes 8 --scope 100 --strategy greedy --seed 7 \
      --replicas 2 --domains 4 $flags | sed -E 's/[0-9]+ ms/X ms/g' >"$tmp/r2.$n"
  done
  same r2.1 r2.2 r2.3 || fail "r=2 place differs across threads x shards"

  # examples: each one runs to completion.
  local ex
  cargo build -q --release --examples
  for ex in examples/*.rs; do
    ex=$(basename "$ex" .rs)
    ./target/release/examples/"$ex" >/dev/null || fail "example $ex exited non-zero"
  done
  echo "OK: every example in examples/ exited 0."
}

step_bench() {
  local b cores slow
  for b in placement_graph placement_batch placement_parallel placement_shard \
    controller_soak serving_load live_replay replica_read paper; do
    echo "-- $b (quick)"
    CCA_BENCH_QUICK=1 CCA_BENCH_OUT="$tmp/$b.json" cargo bench -q -p cca-bench --bench "$b"
    [ -s "$tmp/$b.json" ] || fail "$b smoke wrote no JSON"
  done
  echo "-- placement_micro (quick)"
  CCA_BENCH_QUICK=1 cargo bench -q -p cca-bench --bench placement_micro
  paper_shape "$tmp/paper.json"
  lacks "$tmp/placement_parallel.json" '"identical_to_serial": false'
  cores=$(nproc 2>/dev/null || echo 1)
  if [ "$cores" -lt 8 ]; then
    echo "SKIP: speed-up gate: $cores core(s) bound the speed-up at ~1.0;" \
      "thread identity is the binding contract here."
    return
  fi
  # On a real multicore host, 8 rounding workers must beat serial.
  slow=$(values "$tmp/placement_parallel.json" speedup_vs_serial '"threads": 8,' |
    awk '$1 <= 1.0')
  [ -z "$slow" ] || fail "host has $cores cores but 8 rounding threads are not faster than serial"
}

step_baseline() {
  # Each file: a full (non-quick) run on its named instance, with every
  # invariant it records true.
  has BENCH_graph.json '"bench": "placement_graph"' '"name": "zipf-10k"' '"quick": false'
  has BENCH_batch.json '"bench": "placement_batch"' '"name": "zipf-10k"' \
    '"batch_speedup_floor": 2' '"quick": false'
  lacks BENCH_parallel.json '"identical_to_serial": false'
  has BENCH_shard.json '"bench": "placement_shard"' '"name": "zipf-1m"' '"objects": 1000000' \
    '"edges": 10000000' '"quick": false' '"draw_order_sharded": [' \
    '"wide_interleave": {"num_nodes": 16777217, "bits_match": true}'
  lacks BENCH_shard.json '"bits_match": false'
  has BENCH_controller.json '"bench": "controller_soak"' '"epochs": 10000' '"quick": false' \
    '"invariant_ok": true' '"repair_converged": true' '"reports_identical": true' \
    '"final_feasible": true'
  has BENCH_serving.json '"bench": "serving_load"' '"queries": 10000' '"quick": false' \
    '"invariant_ok": true' '"reports_identical": true' '"shed_deadline": 0'
  has BENCH_live.json '"bench": "live_replay"' '"epochs": 100' '"quick": false' \
    '"counters_consistent": true' '"within_budget": true' '"improved": true' \
    '"reports_identical": true'
  has BENCH_replica.json '"bench": "replica_read"' '"queries": 10000' '"quick": false' \
    '"r1_report_identical_to_single_copy": true'
  lacks BENCH_replica.json '"spread_valid": false' '"counters_ok": false'
  has BENCH_paper.json '"bench": "paper"' '"quick": false'
  paper_shape BENCH_paper.json

  # Throughput floors, 5-7% of the recording host's figures, so they trip
  # on a real regression (a quadratic loop, a per-query rescan, a solve
  # every epoch), not on host-to-host noise. At 10^7 edges every sharded
  # eval must clear 50 Medges/s, on sorted and draw-order pairs alike;
  # the flat sort-based CSR build must clear 0.2.
  floor BENCH_controller.json epochs_per_s 500
  floor BENCH_serving.json queries_per_s 5000
  floor BENCH_live.json queries_per_s 5000
  floor BENCH_replica.json queries_per_s 5000
  floor BENCH_shard.json eval_medges_per_s 50 '"shards":'
  floor BENCH_shard.json build_medges_per_s 0.2 '"flat":'
}

# -- driver --------------------------------------------------------------

[ $# -gt 0 ] || set -- "${steps[@]}"
for s in "$@"; do
  declare -F "step_$s" >/dev/null || {
    echo "unknown step '$s' (steps: ${steps[*]})" >&2
    exit 2
  }
done

declare -A verdict
failed=0
for s in "$@"; do
  echo
  echo "==================== $s ===================="
  (
    set -eE
    trap 'echo "ERROR: failed: $BASH_COMMAND" >&2' ERR
    "step_$s"
  )
  if [ $? -eq 0 ]; then
    verdict[$s]=OK
  else
    verdict[$s]=FAILED
    failed=1
  fi
done

echo
echo "==================== summary ===================="
for s in "$@"; do
  printf '%-10s %s\n' "$s" "${verdict[$s]}"
done
exit "$failed"
