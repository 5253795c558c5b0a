#!/bin/sh
# Crash-recovery smoke test: start `isf table 1 --checkpoint`, SIGKILL
# it once a first cell is checkpointed, resume from the checkpoint, and
# require the recovered output to be byte-identical to an uninterrupted
# run; then do the same from copies of the finished checkpoint cut at
# 1/4, 1/2 and 3/4.
#
# Usage: scripts/crash_recovery.sh [path-to-isf]
set -eu

ISF=${1:-_build/default/bin/isf.exe}
. "$(dirname "$0")/kill_mid_run.sh"
DIR=$(mktemp -d)
trap 'rm -rf "$DIR"' EXIT

CKPT=$DIR/table1.ckpt

# the uninterrupted reference run (2 domains, same config as below)
"$ISF" table 1 -j 2 > "$DIR/expected.txt"

# start the same run with a checkpoint; kill it once a first cell is
# checkpointed
"$ISF" table 1 -j 2 --checkpoint "$CKPT" > "$DIR/killed.txt" 2>/dev/null &
kill_mid_run $! "$CKPT" 1 "run $!"

# resume: completed cells come from the checkpoint, the rest recompute
"$ISF" table 1 -j 2 --checkpoint "$CKPT" > "$DIR/resumed.txt"

if ! cmp -s "$DIR/expected.txt" "$DIR/resumed.txt"; then
    echo "FAIL: resumed output differs from the uninterrupted run" >&2
    diff "$DIR/expected.txt" "$DIR/resumed.txt" >&2 || true
    exit 1
fi

# a second resume must be pure checkpoint replay, still byte-identical
"$ISF" table 1 -j 2 --checkpoint "$CKPT" > "$DIR/replayed.txt"
cmp -s "$DIR/expected.txt" "$DIR/replayed.txt" || {
    echo "FAIL: checkpoint replay differs from the uninterrupted run" >&2
    exit 1
}

# resuming under a different configuration must refuse, not mis-resume
if "$ISF" table 1 -j 2 --engine ref --checkpoint "$CKPT" > /dev/null 2>&1; then
    echo "FAIL: mismatched configuration resumed from the checkpoint" >&2
    exit 1
fi

# a checkpoint torn at 1/4, 1/2 and 3/4 of the finished file: the
# resume and the run after it must both be byte-identical
SIZE=$(wc -c < "$CKPT")
for Q in 1 2 3; do
    head -c $((SIZE * Q / 4)) "$CKPT" > "$DIR/torn.ckpt"
    for LEG in resume rerun; do
        "$ISF" table 1 -j 2 --checkpoint "$DIR/torn.ckpt" > "$DIR/torn.txt"
        cmp -s "$DIR/expected.txt" "$DIR/torn.txt" || {
            echo "FAIL: $LEG of a checkpoint cut at $Q/4 differs" >&2
            exit 1
        }
    done
done

echo "crash recovery OK"
