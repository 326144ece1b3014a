#!/usr/bin/env bash
# Builds the benchmark from source inside the current checkout and runs it
# with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload popular-shapes --seed 1 --seconds 15 --trace 0
#
# Every build artifact (binary, Go build cache, data directories) stays
# under .bench_build/ (or $CARGO_TARGET_DIR when set), so a run reads and
# writes only the checkout.
set -euo pipefail
root="$(pwd)"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out/gocache" "$out/gomodcache" "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOFLAGS=-mod=mod GOTOOLCHAIN=local GOPROXY=off GOWORK=off
(cd "$root/perfbench" && go build -o "$out/perfbench.new" .)
# Keep the old binary when nothing changed, and flush what the build wrote
# before measuring: write-back of a fresh binary and build cache slowed the
# first run after a build.
if cmp -s "$out/perfbench.new" "$out/perfbench" 2>/dev/null; then
	rm "$out/perfbench.new"
else
	mv "$out/perfbench.new" "$out/perfbench"
fi
sync
exec "$out/perfbench" -workdir "$out" "$@"
