#!/usr/bin/env bash
# Build the mae CLI and the benchmark from this source tree, then run
# the benchmark.  Run from the repository root:
#   bash perfbench/run.sh --workload serve-hot --seed 1 --seconds 20 --trace 0
# Build output goes to stderr; the last stdout line is the JSON result.
set -eu
cd "$(dirname "$0")/.."
if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -d bin ]; then
  echo "perfbench: no mae source tree here (need dune-project, lib/, bin/)" >&2
  exit 2
fi
command -v dune >/dev/null 2>&1 || eval "$(opam env 2>/dev/null)" || true
dune build --root . ./bin/mae_cli.exe ./perfbench/main.exe 1>&2
exec ./_build/default/perfbench/main.exe --mae ./_build/default/bin/mae_cli.exe "$@"
