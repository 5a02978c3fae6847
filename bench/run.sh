#!/usr/bin/env bash
# Launcher for the phantom benchmark (see bench/README.md). Builds the
# bench module into .bench_build/ under the current directory — which must
# be the repository root — and runs it with the given arguments. Nothing is
# read or written outside that directory: the Go build cache lives under
# .bench_build/ too.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOWORK=off GOTOOLCHAIN=local
# No dependencies are fetched (the module graph is this repository only),
# but the go command insists on a module cache location.
export GOMODCACHE="$out/gomodcache"
# The compiler's scratch files stay inside the checkout as well.
export GOTMPDIR="$out/tmp"
mkdir -p "$GOTMPDIR"
(cd "$here" && go build -o "$out/phantom-bench" .)
exec "$out/phantom-bench" "$@"
