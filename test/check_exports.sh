#!/usr/bin/env bash
# List the exports no other file uses: each top-level `val` of a
# lib/**/*.mli with no `Module.name` use in any .ml or .mli outside the
# module's own two files (lib, bin, bench, examples, test, rdalbench).
#
#   test/check_exports.sh                                  # print `file name` lines
#   test/check_exports.sh | diff - <(grep -v '^#' test/golden/unused-exports.txt)
#
# A use through a local open (`Wire.(list string)`) is not seen, so the
# golden keeps such names with a `#` comment line saying why; lines that
# start with `#` are comments and are not compared. Values of nested
# signatures (indented `val`s) are not checked.
set -euo pipefail
cd "$(dirname "$0")/.."

uses=$(grep -roE --include='*.ml' --include='*.mli' \
  "(^|[^A-Za-z0-9_'.])[A-Z][A-Za-z0-9_]*\.[a-z_][A-Za-z0-9_']*" \
  lib bin bench examples test rdalbench 2>/dev/null \
  | sed -E "s/:[^A-Z]*/ /" | sort -u)

for mli in $(find lib -name '*.mli' | sort); do
  base=$(basename "$mli" .mli)
  own_ml=${mli%.mli}.ml
  module=$(printf '%s' "${base:0:1}" | tr a-z A-Z)${base:1}
  sed -nE "s/^val ([a-z_][A-Za-z0-9_']*).*/\1/p" "$mli" | sort -u | while read -r name; do
    if ! awk -v use="$module.$name" -v a="$mli" -v b="$own_ml" \
      '$2 == use && $1 != a && $1 != b { found = 1; exit } END { exit !found }' <<<"$uses"; then
      echo "$mli $name"
    fi
  done
done
