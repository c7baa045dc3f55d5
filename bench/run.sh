#!/usr/bin/env bash
# The benchmark's entry point (BENCHMARK.json's command): build the bench
# binary from source, then run it from the repository root with the given
# flags. Everything the build writes — the binary, Go's build and module
# caches — lands in .bench_build inside the checkout (or CARGO_TARGET_DIR,
# which the driver points there), never in $HOME.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out/gotmp"

# XDG_CONFIG_HOME keeps the go command's telemetry counters in there too.
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" GOTMPDIR="$out/gotmp"
export GOTOOLCHAIN=local GOWORK=off XDG_CONFIG_HOME="$out/config"
(cd "$here" && go build -o "$out/ldc-bench" .) >&2

cd "$root"
exec "$out/ldc-bench" "$@"
