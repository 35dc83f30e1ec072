#!/usr/bin/env bash
# Builds the end-to-end benchmark from source, then runs it with the given
# arguments. Run it from the repository root:
#
#   bash e2ebench/run.sh --workload serve_segment_ref --seed 1 --seconds 30 --trace 0
#
# The build cache, the go command's own files, temporary files, the binary
# and traced runs' spans all stay under .bench_build.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/config" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
	XDG_CONFIG_HOME="$out/config" GOTMPDIR="$out/tmp" \
	GOENV=off GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
(cd e2ebench && go build -o "$out/e2ebench" .)
exec "$out/e2ebench" "$@"
