#!/usr/bin/env bash
# Crash-recovery gate for the durable relation store (the CI `persistence`
# job): build a store through mmjoin_cli --store, warm-reopen it, then use
# the MMJOIN_PERSIST_CRASH test hook to SIGKILL the process mid-persist
# and assert that (a) the torn store is REFUSED on reopen with a checksum
# error — never silently half-loaded — and (b) after removing the torn
# files a rebuild produces a store whose joins verify against the oracle
# again. Every join run here is oracle-checked by the binary itself
# ("verified yes" means count and checksum matched the workload's
# expectations), so "identical results" rides on the same seed-determined
# expectations before and after the crash.
#
#   scripts/check_persistence.sh [build_dir] [objects]
#
# Defaults: build, 8192 objects per relation, D=4. The store lives in a
# mktemp directory and is removed on exit.
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${1:-build}"
OBJECTS="${2:-8192}"
CLI="$BUILD_DIR/examples/mmjoin_cli"

if [ ! -x "$CLI" ]; then
  cmake -B "$BUILD_DIR" -S .
  cmake --build "$BUILD_DIR" -j --target mmjoin_cli
fi

STORE="$(mktemp -d)"
trap 'rm -rf "$STORE"' EXIT
run_cli() {
  "$CLI" --backend=real --algorithm=index-nl --r="$OBJECTS" --s="$OBJECTS" \
    --theta=1.1 --store="$STORE" "$@"
}

echo "== cold build + persist ($STORE)"
out="$(run_cli)"
echo "$out"
grep -q "store: persisted" <<<"$out"
grep -q "verified yes" <<<"$out"

echo "== warm reopen (no rebuild)"
out="$(run_cli)"
echo "$out"
grep -q "store: reopened" <<<"$out"
grep -q "verified yes" <<<"$out"

echo "== SIGKILL mid-persist (MMJOIN_PERSIST_CRASH=3)"
rm -rf "$STORE"; mkdir -p "$STORE"
set +e
MMJOIN_PERSIST_CRASH=3 run_cli >/dev/null 2>&1
rc=$?
set -e
if [ "$rc" -ne 137 ]; then
  echo "check_persistence: FAIL — expected SIGKILL exit 137, got $rc"
  exit 1
fi
echo "   killed as expected (exit $rc); store is torn"

echo "== torn store must be refused with a checksum error"
set +e
err="$(run_cli 2>&1 >/dev/null)"
rc=$?
set -e
echo "$err"
if [ "$rc" -ne 1 ]; then
  echo "check_persistence: FAIL — torn store accepted (exit $rc)"
  exit 1
fi
grep -qi "checksum" <<<"$err" || {
  echo "check_persistence: FAIL — refusal did not mention the checksum"
  exit 1
}

echo "== rebuild after removing the torn store"
rm -rf "$STORE"; mkdir -p "$STORE"
out="$(run_cli)"
echo "$out"
grep -q "store: persisted" <<<"$out"
grep -q "verified yes" <<<"$out"
out="$(run_cli)"
grep -q "store: reopened" <<<"$out"
grep -q "verified yes" <<<"$out"

echo "check_persistence: OK"
