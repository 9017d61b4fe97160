#!/usr/bin/env bash
# Verifies the resilience layer end to end:
#   1. the workspace builds in release mode with the `chaos` fault-
#      injection feature enabled;
#   2. the core resilience unit tests and property suite pass;
#   3. the capacity-repair unit tests pass, including the differential
#      property that pins every repair move to the reference
#      implementation kept in `repair.rs`;
#   4. the tier-2 chaos suite passes — every seeded fault plan must yield
#      a complete, audited placement, deterministically per seed;
#   5. the `cca place` exit-code taxonomy works (0 ok, 2 degraded).
#
# Run from anywhere inside the repo:
#   scripts/check_resilience.sh
set -euo pipefail

cd "$(dirname "$0")/.."

export CARGO_NET_OFFLINE=true

echo "== resilience check: release build with chaos feature =="
cargo build --release --features chaos

echo
echo "== resilience check: core resilience tests =="
cargo test -q -p cca-core --features chaos --lib resilience
cargo test -q -p cca-core --test property resilient

echo
echo "== resilience check: capacity repair (unit tests + differential oracle) =="
cargo test -q -p cca-core --lib repair

echo
echo "== resilience check: tier-2 chaos suite =="
cargo test -q --features chaos --test chaos

echo
echo "== resilience check: CLI exit-code taxonomy =="
CCA=target/release/cca
set +e
"$CCA" place --preset tiny --nodes 3 --deadline-ms 60000 >/dev/null 2>&1
OK_CODE=$?
"$CCA" place --preset tiny --nodes 3 --deadline-ms 0 >/dev/null 2>&1
DEGRADED_CODE=$?
set -e
if [[ "$OK_CODE" -ne 0 ]]; then
    echo "ERROR: generous deadline should exit 0, got $OK_CODE" >&2
    exit 1
fi
if [[ "$DEGRADED_CODE" -ne 2 ]]; then
    echo "ERROR: zero deadline should exit 2 (degraded), got $DEGRADED_CODE" >&2
    exit 1
fi
echo "OK: exit codes 0 (ok) and 2 (degraded) observed."

echo
echo "resilience check passed."
