#!/usr/bin/env bash
# Builds benchmarks/e2e from source and runs it with the given arguments.
# Everything the build and the run write stays inside the checkout: the
# binary, the Go build cache and the stores' data directories live under
# .bench_build/, traces and result files under benchmarks/out/.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
mkdir -p .bench_build
export GOCACHE="$root/.bench_build/gocache" GOTOOLCHAIN=local
go build -C benchmarks -o "$root/.bench_build/e2e" ./e2e
exec "$root/.bench_build/e2e" "$@"
