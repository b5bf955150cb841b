#!/bin/sh
# Build the benchmark from source and run it; every argument goes to
# perf.exe (see README.md in this directory).  Run from the repository root.
# The shared dune cache is off so that the build reads and writes only
# inside the checkout.
if [ ! -f dune-project ] || [ ! -d lib ]; then
  echo "run.sh: not at the root of a snapcc checkout (dune-project, lib/ missing)" >&2
  exit 1
fi
exec dune exec --root . --cache=disabled --display quiet bench/perf/perf.exe -- "$@"
