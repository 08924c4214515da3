#!/usr/bin/env bash
# Compare the gate values in ./BENCH_gates.json with a checked-in golden.
#
#   bench/check_gates.sh test/golden/gates-smoke.txt   # after main.exe --smoke
#   bench/check_gates.sh test/golden/gates.txt         # after main.exe
#   bench/check_gates.sh --write GOLDEN                # regenerate GOLDEN
#
# The golden holds one `name value` line per gate row, after a first line
# naming the compiler that produced it (`ocamlopt -config` version and
# flambda): allocation counts depend on both, so on another compiler the
# diff is skipped with a notice. hotpath.explore_scaling is wall clock and
# is left out.
set -euo pipefail

write=false
if [ "${1:-}" = "--write" ]; then
  write=true
  shift
fi
golden=${1:?usage: check_gates.sh [--write] GOLDEN}

config=$(ocamlopt -config)
compiler="ocaml $(sed -n 's/^version: //p' <<<"$config") flambda $(sed -n 's/^flambda: //p' <<<"$config")"

gates() {
  echo "$compiler"
  sed -n 's/.*"name": "\([^"]*\)", "value": \([^,]*\),.*/\1 \2/p' BENCH_gates.json \
    | grep -v '^hotpath\.explore_scaling '
}

if $write; then
  gates > "$golden"
elif [ "$(head -n 1 "$golden")" != "$compiler" ]; then
  echo "::notice::$golden was recorded on $(head -n 1 "$golden"), this is $compiler: gate diff skipped"
else
  gates | diff - "$golden"
fi
