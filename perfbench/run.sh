#!/usr/bin/env bash
# Builds the end-to-end benchmark from this checkout's source and runs it:
#
#   bash perfbench/run.sh --workload web-monitor --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write (Go build cache, temporary files,
# the binary, spill directories, span files) stays under .bench_build/ at
# the checkout root.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"

# The Go tarball installs under /usr/local/go; fall back to it when go is
# not on PATH.
command -v go >/dev/null 2>&1 || PATH="$PATH:/usr/local/go/bin"

export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
	GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
cd "$root"
exec "$out/perfbench" "$@"
