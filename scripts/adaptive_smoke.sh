#!/bin/sh
# Adaptive-invariance smoke test: with the adaptive loop OFF (the
# default), `isf table all` must be byte-identical across every
# configuration the loop could conceivably perturb — both engines, both
# recording paths, and cold/warm against a persistent run cache.  The
# adaptive tier (lib/adaptive) hooks into the VM through fields that are
# inert unless --adaptive arms them; this script is the end-to-end check
# that merely linking the tier costs zero bytes of output.
#
# A chaos leg runs the same table under one deterministic fault plan on
# both engines: some cells fail by design, so the exit code is
# non-zero, and both the exit code and stdout must match.
#
# A final sanity leg runs the adaptive experiment (the loop ON, with
# its governor) on both engines and requires their outputs identical to
# each other: the loop itself must stay deterministic and
# engine-independent.
#
# Usage: scripts/adaptive_smoke.sh [path-to-isf]
set -eu

ISF=${1:-_build/default/bin/isf.exe}
DIR=$(mktemp -d)
trap 'rm -rf "$DIR"' EXIT

"$ISF" table all -j 2 --engine fast > "$DIR/ref.txt"

run() {
    name=$1; shift
    "$ISF" table all -j 2 "$@" > "$DIR/$name.txt"
    if ! cmp -s "$DIR/ref.txt" "$DIR/$name.txt"; then
        echo "FAIL: adaptive-off output differs for: $name" >&2
        diff "$DIR/ref.txt" "$DIR/$name.txt" >&2 || true
        exit 1
    fi
}

run ref-engine        --engine ref
run fast-legacy       --engine fast --recording legacy
run ref-legacy        --engine ref  --recording legacy
run cache-cold        --engine fast --cache "$DIR/cache"
run cache-warm        --engine fast --cache "$DIR/cache"

# chaos: every fault event must land at the same cycle on both engines
# (a chain-step bug that fires only on fault events shows here)
rc_fast=0
"$ISF" table all -j 2 --engine fast --chaos 7 \
    > "$DIR/chaos-fast.txt" 2> /dev/null || rc_fast=$?
rc_ref=0
"$ISF" table all -j 2 --engine ref --chaos 7 \
    > "$DIR/chaos-ref.txt" 2> /dev/null || rc_ref=$?
if [ "$rc_fast" -ne "$rc_ref" ]; then
    echo "FAIL: chaos exit codes differ fast ($rc_fast) vs ref ($rc_ref)" >&2
    exit 1
fi
if ! cmp -s "$DIR/chaos-fast.txt" "$DIR/chaos-ref.txt"; then
    echo "FAIL: fast output differs from ref under --chaos" >&2
    diff "$DIR/chaos-fast.txt" "$DIR/chaos-ref.txt" >&2 || true
    exit 1
fi

# the loop ON: deterministic, and identical across engines
"$ISF" table adaptive -j 2 --engine fast --overhead-budget 10 \
    > "$DIR/on-fast.txt"
"$ISF" table adaptive -j 2 --engine ref --overhead-budget 10 \
    > "$DIR/on-ref.txt"
if ! cmp -s "$DIR/on-fast.txt" "$DIR/on-ref.txt"; then
    echo "FAIL: adaptive-on output differs between engines" >&2
    diff "$DIR/on-fast.txt" "$DIR/on-ref.txt" >&2 || true
    exit 1
fi

echo "adaptive invariance OK"
