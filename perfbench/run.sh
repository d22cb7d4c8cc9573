#!/usr/bin/env bash
# Builds cmd/hpfqgw and the perfbench harness from the checkout in the
# current directory, then runs one workload:
#
#   bash perfbench/run.sh --workload gw_echo --seed 1 --seconds 10 --trace 0
#
# Everything the build writes (binaries, Go build cache, temp files) stays
# under .bench_build in the checkout.
set -euo pipefail
root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/hpfqgw" ]]; then
	echo "run.sh: no hpfq module with cmd/hpfqgw in $root; run it from the repository root" >&2
	exit 1
fi
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config/go/telemetry"
# Telemetry off: otherwise the go command forks a detached upload process
# that can outlive this script.
echo off >"$out/config/go/telemetry/mode"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
	GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go build -o "$out/hpfqgw" ./cmd/hpfqgw
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" -gateway "$out/hpfqgw" "$@"
