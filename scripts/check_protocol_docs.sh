#!/usr/bin/env bash
# Protocol-docs coverage gate: every wire vocabulary string in
# src/service/protocol.h (the kRequestOps / kResponseOps / kErrorCodes
# tables — the single source of truth for the mmjoind protocol), every
# driver name in src/join/drivers.cc (the kDrivers table) plus the
# request-side `auto` — together the query.algorithm vocabulary — and
# every built-in plan name in src/exec/op/plan.h (kPlanNames — the
# run_plan vocabulary) must appear in docs/PROTOCOL.md, and the operator
# docs must exist at all. The same goes for the join options: every field
# of `struct MmJoinOptions` (src/mmap/mmap_join.h) must be a row of the
# `mm::MmJoinOptions` table in docs/PARAMETERS.md, and every row must name
# a field.
# Wired into ctest as `check_protocol_docs` so adding a message or an
# option without documenting it, or deleting an option and keeping its
# row, fails the tier-1 suite, not a reviewer's memory.
#
#   scripts/check_protocol_docs.sh [repo_root]
set -euo pipefail
cd "${1:-$(dirname "$0")/..}"

HEADER=src/service/protocol.h
SPEC=docs/PROTOCOL.md

fail=0
for doc in docs/PROTOCOL.md docs/OPERATIONS.md; do
  if [ ! -f "$doc" ]; then
    echo "check_protocol_docs: MISSING $doc"
    fail=1
  fi
done
[ "$fail" -eq 0 ] || exit 1

# Pull the quoted strings out of a constexpr array. The arrays are
# `inline constexpr const char* kFoo[] = { "a", "b", ... };`, or rows of
# kDrivers, whose one string is the driver name — collect every "..."
# token between the opening brace and the closing `};`.
tokens() {
  awk -v table="$1" '
    $0 ~ "constexpr [^=]*[ *]" table "\\[" { in_table = 1 }
    in_table {
      line = $0
      while (match(line, /"[^"]+"/)) {
        print substr(line, RSTART + 1, RLENGTH - 2)
        line = substr(line, RSTART + RLENGTH)
      }
      if ($0 ~ /};/) in_table = 0
    }
  ' "$2"
}

# The spec marks wire strings as code spans; require the exact token in
# backticks so prose coincidences ("internal", "list") cannot satisfy the
# check.
check_token() {
  local token=$1 source=$2
  if ! grep -q "\`$token\`" "$SPEC"; then
    echo "check_protocol_docs: $source string '$token' not documented in $SPEC"
    missing=1
  fi
}

check_table() {
  local table=$1 header=$2
  local found_any=0
  while IFS= read -r token; do
    found_any=1
    check_token "$token" "$table"
  done < <(tokens "$table" "$header")
  if [ "$found_any" -eq 0 ]; then
    echo "check_protocol_docs: could not extract $table from $header"
    missing=1
  fi
}

missing=0
for table in kRequestOps kResponseOps kErrorCodes; do
  check_table "$table" "$HEADER"
done
# The query op's algorithm vocabulary: the driver table's names, plus the
# request-side "auto" (join::kAutoAlgorithmName) that asks the planner.
check_table kDrivers src/join/drivers.cc
check_token auto kAutoAlgorithmName
# The run_plan op's plan-name vocabulary lives with the operator layer.
check_table kPlanNames src/exec/op/plan.h

# Field names declared in `struct MmJoinOptions`: one declaration per
# line, comments and default values stripped.
option_fields() {
  awk '
    /^struct MmJoinOptions \{/ { in_struct = 1; next }
    in_struct && /^};/ { exit }
    in_struct {
      line = $0
      sub(/\/\/.*/, "", line)
      sub(/=.*/, ";", line)
      if (match(line, /[A-Za-z_][A-Za-z0-9_]*[ \t]*;/)) {
        name = substr(line, RSTART, RLENGTH)
        sub(/[ \t]*;$/, "", name)
        print name
      }
    }
  ' src/mmap/mmap_join.h | sort
}

# First-column names of the table under the `mm::MmJoinOptions` heading.
option_rows() {
  awk '
    /^## `mm::MmJoinOptions`/ { in_section = 1; next }
    in_section && /^## / { exit }
    in_section && /^\| `[^`]+` \|/ {
      split($0, cell, "`")
      print cell[2]
    }
  ' docs/PARAMETERS.md | sort
}

fields=$(option_fields)
rows=$(option_rows)
if [ -z "$fields" ] || [ -z "$rows" ]; then
  echo "check_protocol_docs: could not extract MmJoinOptions fields or rows"
  missing=1
fi
for f in $(comm -23 <(echo "$fields") <(echo "$rows")); do
  echo "check_protocol_docs: MmJoinOptions::$f has no row in docs/PARAMETERS.md"
  missing=1
done
for r in $(comm -13 <(echo "$fields") <(echo "$rows")); do
  echo "check_protocol_docs: docs/PARAMETERS.md row '$r' names no MmJoinOptions field"
  missing=1
done

if [ "$missing" -ne 0 ]; then
  exit 1
fi
echo "check_protocol_docs: OK (every wire string and join option documented)"
