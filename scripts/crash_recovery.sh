#!/bin/sh
# Crash-recovery smoke test: start `isf table 1 --cache DIR`, SIGKILL
# it once a first measurement is in the cache, and resume with the same
# --cache.  The resumed output must be byte-identical to an
# uninterrupted run, and its [runcache] line (under --trace) must show
# one disk hit per entry present at the kill and no corrupt entry.  A
# second resume is all disk hits; a run under another engine against
# the same directory prints the same table from no disk hit at all.
#
# Usage: scripts/crash_recovery.sh [path-to-isf]
set -eu

ISF=${1:-_build/default/bin/isf.exe}
. "$(dirname "$0")/kill_mid_run.sh"
DIR=$(mktemp -d)
trap 'rm -rf "$DIR"' EXIT

CACHE=$DIR/cache

# the uninterrupted reference run (2 domains, same config as below)
"$ISF" table 1 -j 2 > "$DIR/expected.txt"

# the [runcache] stats line of a --trace run's stderr
stats() { grep -o '\[runcache\].*' "$1"; }

# require_stats LEG ERR PATTERN...: every PATTERN is in ERR's stats line
require_stats() {
    rs_leg=$1
    rs_line=$(stats "$2")
    shift 2
    for rs_want in "$@"; do
        case " $rs_line " in
        *" $rs_want "*) ;;
        *)
            echo "FAIL: $rs_leg: want $rs_want in: $rs_line" >&2
            exit 1
            ;;
        esac
    done
    echo "$rs_leg: $rs_line"
}

# require_same LEG FILE: FILE is byte-identical to the reference
require_same() {
    if ! cmp -s "$DIR/expected.txt" "$2"; then
        echo "FAIL: $1 output differs from the uninterrupted run" >&2
        diff "$DIR/expected.txt" "$2" >&2 || true
        exit 1
    fi
}

# kill leg: the same run against an empty cache, killed once a first
# measurement is stored
"$ISF" table 1 -j 2 --cache "$CACHE" > "$DIR/killed.txt" 2>/dev/null &
kill_mid_run $! 1 "run $!" cache_cells "$CACHE"
cache_cells "$CACHE"
CELLS=$km_count

# resume leg: every entry present at the kill is a disk hit, the rest
# recompute
"$ISF" table 1 -j 2 --trace --cache "$CACHE" > "$DIR/resumed.txt" \
    2> "$DIR/resumed.err"
require_same resume "$DIR/resumed.txt"
require_stats resume "$DIR/resumed.err" "disk-hits=$CELLS" corrupt=0

# replay leg: a second resume measures nothing
"$ISF" table 1 -j 2 --trace --cache "$CACHE" > "$DIR/replayed.txt" \
    2> "$DIR/replayed.err"
require_same replay "$DIR/replayed.txt"
require_stats replay "$DIR/replayed.err" misses=0 corrupt=0

# mismatch leg: another engine's run keys never hit the entries above
"$ISF" table 1 -j 2 --engine ref --trace --cache "$CACHE" \
    > "$DIR/mismatch.txt" 2> "$DIR/mismatch.err"
require_same mismatch "$DIR/mismatch.txt"
require_stats mismatch "$DIR/mismatch.err" disk-hits=0 corrupt=0

echo "crash recovery OK ($CELLS entries at the kill)"
