#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it with the
# given arguments, from the repository root. The binary, the Go build
# cache and everything a run writes stay under .bench_build/.
#
#   bash bench/run.sh --workload colocated --seed 1 --seconds 10 --trace 0
#   bash bench/run.sh compare A1.out A2.out -- B1.out B2.out
set -euo pipefail
cd "$(dirname "$0")/.."
out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
# Stamp the commit into the binary only where git can describe the
# checkout; elsewhere VCS stamping would fail the build.
vcs=-buildvcs=false
if git rev-parse --git-dir >/dev/null 2>&1; then
	vcs=-buildvcs=auto
fi
(cd bench && go build "$vcs" -o "$out/perfiso-bench" .)
exec "$out/perfiso-bench" "$@"
