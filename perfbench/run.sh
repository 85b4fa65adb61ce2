#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root, e.g.
#
#   bash perfbench/run.sh --workload paper --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run leave behind (Go build cache, module
# cache, Go's own config files, binary, trace files) goes under
# .bench_build/ in the current directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOENV=off GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

# The host fingerprint names the code measured: the commit when the
# checkout is a clean git work tree of its own (git is kept from
# searching above it), otherwise a digest of the Go sources and module
# files, after the commit when the work tree has uncommitted changes.
export GIT_CEILING_DIRECTORIES="$(dirname "$root")"
tree() {
	find . -path ./.bench_build -prune -o \( -name '*.go' -o -name go.mod -o -name digests.json \) -type f -print |
		LC_ALL=C sort | xargs sha256sum | sha256sum | cut -c1-12
}
if ! commit=$(git -C "$root" rev-parse --short=12 HEAD 2>/dev/null); then
	commit=tree-$(tree)
elif [ -n "$(git -C "$root" status --porcelain 2>/dev/null)" ]; then
	commit=$commit-dirty-$(tree)
fi

(cd "$root/perfbench" && go build -trimpath -o "$out/perfbench" .)
exec "$out/perfbench" --out "$out" --commit "$commit" "$@"
